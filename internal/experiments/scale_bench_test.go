package experiments

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/radio"
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
// as the window advances, and the fixture must be deterministic (the
// benchmark rows are comparable run to run).
func TestSaturatedNetworkCarriesTraffic(t *testing.T) {
	for _, n := range []int{50, 100} {
		net := NewSaturatedNetwork(n, ScaleDensity, 1)
		before := net.Sim.Transmissions()
		net.Advance(20 * sim.Millisecond)
		after := net.Sim.Transmissions()
		if after <= before {
			t.Fatalf("n=%d: no transmissions in a saturated steady-state window (%d → %d)", n, before, after)
		}
		twin := NewSaturatedNetwork(n, ScaleDensity, 1)
		twin.Advance(20 * sim.Millisecond)
		if got := twin.Sim.Transmissions(); got != after {
			t.Fatalf("n=%d: fixture not deterministic: %d vs %d transmissions", n, got, after)
		}
	}
}

// TestScaleFlowsMatchesFullRows pins ScaleFlows, which reads only its
// stride sources' rows off a lazily built medium, to the same rule run
// over every row of an eager BuildDeliveries: the flow lists must be
// identical at every size and both densities.
func TestScaleFlowsMatchesFullRows(t *testing.T) {
	for _, density := range []float64{ScaleDensity, DenseDensity} {
		for _, n := range ScaleSizes {
			s := topo.UniformDisk(n, density, 1)
			count := n/10 + 2
			rows, _ := medium.BuildDeliveries(s.Params, s.Model, s.Pos, 1)
			var want []topo.Link
			used := make([]bool, n)
			for src := 0; src < n && len(want) < count; src += max(1, n/count) {
				best, bestG := -1, 0.0
				for _, d := range rows[src] {
					if !used[d.Dst] && d.GainMW > bestG {
						best, bestG = d.Dst, d.GainMW
					}
				}
				if best == -1 || used[src] {
					continue
				}
				used[src], used[best] = true, true
				want = append(want, topo.Link{Src: src, Dst: best})
			}
			if got := ScaleFlows(s, count); len(want) < count/2 || !slices.Equal(got, want) {
				t.Fatalf("density %v n=%d: ScaleFlows picked %v, the full rows %v", density, n, got, want)
			}
		}
	}
}

// pairTally forwards a range-bounded, screened model and counts, per
// unordered pair, how often the pair was put to the screen.
type pairTally struct {
	inner interface {
		radio.Model
		radio.RangeBounder
		radio.Screener
	}
	mu    sync.Mutex
	pairs map[[2]int]int
}

func (c *pairTally) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	return c.inner.Loss(a, pa, b, pb)
}

func (c *pairTally) MaxRange(maxLossDB float64) float64 { return c.inner.MaxRange(maxLossDB) }

func (c *pairTally) Screen(maxLossDB float64) *radio.Screen { return c.inner.Screen(maxLossDB) }

func (c *pairTally) Inaudible(s *radio.Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	c.mu.Lock()
	c.pairs[[2]int{min(a, b), max(a, b)}]++
	c.mu.Unlock()
	return c.inner.Inaudible(s, a, pa, b, pb)
}

// TestMediumConstructBuildsEveryRow holds the MediumConstruct kernel to
// a full build: one op puts every unordered pair within the model's
// range bound — every candidate the grid can offer — to the screen
// exactly once, and no other pair. A kernel that timed an empty medium
// shell would put none.
func TestMediumConstructBuildsEveryRow(t *testing.T) {
	s := *topo.UniformDisk(200, ScaleDensity, 1)
	tally := &pairTally{inner: s.Model.(*radio.LogDistance), pairs: map[[2]int]int{}}
	s.Model = tally
	rows := constructRows(&s)
	maxRange := tally.MaxRange(s.Params.TxPowerDBm - s.Params.DeliveryFloorDBm)
	want := 0
	for a := range s.Pos {
		for b := a + 1; b < s.N(); b++ {
			if s.Pos[a].Dist(s.Pos[b]) > maxRange {
				continue
			}
			want++
			if k := tally.pairs[[2]int{a, b}]; k != 1 {
				t.Fatalf("candidate pair (%d, %d) was put to the screen %d times, want once", a, b, k)
			}
		}
	}
	kept := 0
	for _, row := range rows {
		kept += len(row)
	}
	if len(tally.pairs) != want || kept == 0 {
		t.Fatalf("one op screened %d pairs of %d candidates and kept %d entries", len(tally.pairs), want, kept)
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
