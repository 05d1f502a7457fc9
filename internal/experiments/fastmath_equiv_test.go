package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// runDiskTraffic measures aggregate saturated goodput over a uniform
// disk with the given reception-math path selected.
func runDiskTraffic(n int, seed uint64, d sim.Time, exact bool) float64 {
	s := topo.UniformDisk(n, ScaleDensity, seed)
	s.Params.ExactReceptionMath = exact
	flows := ScaleFlows(s, n/10+2)
	return RunScaleTraffic(s, flows, d, seed+100)
}

// TestFastMathFigureEquivalence is the figure-level statistical check of
// the table-driven reception path against the exact Erfc/dB reference
// (Params.ExactReceptionMath). The two paths draw identical RNG streams
// and differ only in decode probabilities, by the tables' bounded
// error; near-threshold draws may flip individually, so aggregate
// saturated goodput — the quantity every figure is built from — must
// agree within a few percent, far inside the seed-to-seed spread.
func TestFastMathFigureEquivalence(t *testing.T) {
	n, d := 200, 100*sim.Millisecond
	if testing.Short() {
		d = 40 * sim.Millisecond
	}
	var fast, exact float64
	for _, seed := range []uint64{1, 2, 7} {
		fast += runDiskTraffic(n, seed, d, false)
		exact += runDiskTraffic(n, seed, d, true)
	}
	if exact <= 0 {
		t.Fatal("exact-math reference run carried no traffic")
	}
	rel := math.Abs(fast-exact) / exact
	t.Logf("aggregate goodput: table %.3f Mb/s, exact %.3f Mb/s (Δ %.2f%%)", fast, exact, 100*rel)
	if rel > 0.05 {
		t.Errorf("table-driven path diverged from exact math: %.3f vs %.3f Mb/s (%.1f%% > 5%%)",
			fast, exact, 100*rel)
	}
}
