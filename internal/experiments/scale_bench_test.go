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

// BenchmarkMediumConstructDense is the O(n²) reference; comparing it
// with BenchmarkScale's MediumConstruct rows shows the asymptotic gap
// the grid buys.
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

// BenchmarkScale runs the scaling suite cmapbench -benchjson records,
// under the same row names as the BENCH file (AgendaHold/pending=256,
// SaturatedSteadyState/n=1000/dense, …): one kernel list, two runners.
func BenchmarkScale(b *testing.B) {
	for _, sb := range ScaleBenchmarks() {
		b.Run(sb.Name, sb.Run)
	}
}
