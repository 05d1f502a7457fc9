package experiments

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestThousandNodeScenarioIsSparse is the acceptance guard for the
// scaling work: a 1000-node medium must be grid-constructed, hold far
// fewer than n² delivery entries, and still carry traffic.
func TestThousandNodeScenarioIsSparse(t *testing.T) {
	s := topo.UniformDisk(1000, ScaleDensity, 1)
	m := s.Build(sim.NewScheduler(), sim.NewRNG(1))
	if !m.GridBacked() {
		t.Fatal("1000-node disk medium was not grid constructed")
	}
	total, max := 0, 0
	for i := 0; i < s.N(); i++ {
		k := m.NeighborCount(i)
		total += k
		if k > max {
			max = k
		}
	}
	n := s.N()
	if total >= n*(n-1)/4 {
		t.Fatalf("delivery lists hold %d of %d ordered pairs — quadratic in disguise", total, n*(n-1))
	}
	if max == 0 || total == 0 {
		t.Fatal("no audible links at 1000 nodes")
	}
	flows := ScaleFlows(s, 20)
	if len(flows) < 10 {
		t.Fatalf("only %d flows found at 1000 nodes", len(flows))
	}
	if agg := RunScaleTraffic(s, flows, 20*sim.Millisecond, 7); agg <= 0 {
		t.Fatalf("aggregate goodput %v over the 1000-node disk, want > 0", agg)
	}
}

// TestSaturatedNetworkCarriesTraffic sanity-checks the steady-state
// benchmark fixture: warmed-up saturated flows must keep transmitting
// as the window advances.
func TestSaturatedNetworkCarriesTraffic(t *testing.T) {
	net := NewSaturatedNetwork(50, ScaleDensity, 0, 1)
	before := net.Sim.Transmissions()
	net.Advance(20 * sim.Millisecond)
	if after := net.Sim.Transmissions(); after <= before {
		t.Fatalf("no transmissions in a saturated steady-state window (%d → %d)", before, after)
	}
}

// TestShardedSaturatedNetworkCarriesTraffic sanity-checks the same
// fixture at several shard counts: warmed-up saturated flows must keep
// transmitting as the window advances, and the fixture must be
// deterministic (the benchmark rows are comparable run to run).
func TestShardedSaturatedNetworkCarriesTraffic(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := NewSaturatedNetwork(100, ScaleDensity, shards, 1)
			before := net.Sim.Transmissions()
			net.Advance(20 * sim.Millisecond)
			after := net.Sim.Transmissions()
			if after <= before {
				t.Fatalf("no transmissions in a sharded steady-state window (%d → %d)", before, after)
			}
			twin := NewSaturatedNetwork(100, ScaleDensity, shards, 1)
			twin.Advance(20 * sim.Millisecond)
			if got := twin.Sim.Transmissions(); got != after {
				t.Fatalf("fixture not deterministic: %d vs %d transmissions", got, after)
			}
		})
	}
}

// BenchmarkMediumConstruct measures channel construction across the
// node-count sweep; allocations stay O(n·k), not O(n²).
func BenchmarkMediumConstruct(b *testing.B) {
	for _, n := range MediumConstructSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchMediumConstruct(n))
	}
}

// BenchmarkMediumConstructDense is the O(n²) reference; comparing the
// two shows the asymptotic gap the grid buys.
func BenchmarkMediumConstructDense(b *testing.B) {
	for _, n := range ScaleSizes {
		s := topo.UniformDisk(n, ScaleDensity, 1)
		tb := topo.Testbed{N: n, Bounds: s.Bounds, Pos: s.Pos, Params: s.Params, Model: s.Model, DenseMedium: true}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := tb.Build(sim.NewScheduler(), sim.NewRNG(uint64(i)+1))
				if m.NodeCount() != n {
					b.Fatal("bad build")
				}
			}
		})
	}
}

// BenchmarkScaleTraffic runs saturated flows over each scenario size
// with a fresh build per op (the PR 2 shape): per-op cost tracks how
// construction plus Transmit fan-out scale with network size.
func BenchmarkScaleTraffic(b *testing.B) {
	for _, n := range ScaleSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchScaleTraffic(n))
	}
}

// BenchmarkSaturatedSteadyState measures 20 ms windows of saturated
// traffic on a persistent network — construction excluded, the regime
// the zero-allocation transmit path targets.
func BenchmarkSaturatedSteadyState(b *testing.B) {
	for _, n := range ScaleSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchSaturatedSteadyState(n, ScaleDensity, 0))
	}
	b.Run("n=1000/dense", BenchSaturatedSteadyState(1000, DenseDensity, 0))
}

// BenchmarkAgenda measures the scheduler alone: the hold model at the
// saturated network's depth and at a depth that crowds every bucket,
// timer re-arming inside two or three buckets, and a same-instant burst.
func BenchmarkAgenda(b *testing.B) {
	b.Run("Hold/pending=256", BenchAgendaHold(256))
	b.Run("Hold/pending=4096", BenchAgendaHold(4096))
	b.Run("Rearm/pending=4096", BenchAgendaRearm(4096))
	b.Run("Burst/n=10000", BenchAgendaBurst(10000))
}

// BenchmarkModel prices one grid candidate at mobile_churn's density:
// the full Loss against the shadowing screen that spares most
// candidates it.
func BenchmarkModel(b *testing.B) {
	b.Run(fmt.Sprintf("Loss/n=1000@%d", ChurnDensity), BenchModelLoss(1000, ChurnDensity))
	b.Run(fmt.Sprintf("Screen/n=1000@%d", ChurnDensity), BenchModelScreen(1000, ChurnDensity))
}

// BenchmarkIncrementalUpdate measures one MoveNode through the
// incremental patch path at each scale size: one screen test per grid
// candidate and a model evaluation per survivor, so ns/op tracks the
// candidate set, not n.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, n := range ScaleSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchIncrementalUpdate(n))
	}
}

// BenchmarkEpochUpdate measures one whole movement epoch — every node
// moved in one MoveNodes batch — at each scale size.
func BenchmarkEpochUpdate(b *testing.B) {
	for _, n := range ScaleSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchEpochUpdate(n))
	}
}

// BenchmarkDeliveryRebuild prices the from-scratch rebuild the
// incremental path replaces; the ratio against IncrementalUpdate at the
// same n is the speedup mobility rides on.
func BenchmarkDeliveryRebuild(b *testing.B) {
	for _, n := range ScaleSizes {
		b.Run(fmt.Sprintf("n=%d", n), BenchDeliveryRebuild(n))
	}
}

// BenchmarkShardedSteadyState is the go-test face of the sharded scaling
// matrix at its smallest size; the full n × shards grid runs through
// cmapbench -benchjson, which records it in the BENCH trajectory.
func BenchmarkShardedSteadyState(b *testing.B) {
	for _, k := range ShardCounts {
		b.Run(fmt.Sprintf("n=1000/shards=%d", k), BenchSaturatedSteadyState(1000, ScaleDensity, k))
	}
}
