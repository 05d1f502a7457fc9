package experiments

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCSThresholdSweepEndpoints pins the tradeoff the sweep exists to
// show, at its endpoints: blinding the carrier sense must not hurt the
// exposed pairs (it frees concurrency) and must clearly hurt the hidden
// ones (it strips their only protection).
func TestCSThresholdSweepEndpoints(t *testing.T) {
	opt := Options{
		Seed:     3,
		Nodes:    50,
		Duration: 4 * sim.Second,
		Warmup:   2 * sim.Second,
		Pairs:    6,
		Rate:     phy.Rate6Mbps,
	}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	thresholds := []float64{-96, -87, -78}
	res := CSThresholdSweep(tb, opt, thresholds)
	if len(res.Points) != len(thresholds) {
		t.Fatalf("sweep returned %d points for %d thresholds", len(res.Points), len(thresholds))
	}
	sens, blind := res.Points[0], res.Points[len(res.Points)-1]
	if sens.Exposed.N() == 0 || sens.Hidden.N() == 0 {
		t.Fatal("sweep sampled no pairs — the assertions below would be vacuous")
	}
	if blind.Exposed.Median() < sens.Exposed.Median() {
		t.Errorf("exposed pairs: blind cs@%g median %.2f < sensitive cs@%g median %.2f — blinding should free concurrency",
			blind.ThresholdDBm, blind.Exposed.Median(), sens.ThresholdDBm, sens.Exposed.Median())
	}
	if sens.Hidden.Median() < 1.5*blind.Hidden.Median() {
		t.Errorf("hidden pairs: sensitive cs@%g median %.2f should clearly beat blind cs@%g median %.2f (want ≥1.5×)",
			sens.ThresholdDBm, sens.Hidden.Median(), blind.ThresholdDBm, blind.Hidden.Median())
	}
	found := false
	for _, thr := range thresholds {
		if res.KneeDBm == thr {
			found = true
		}
	}
	if !found {
		t.Errorf("knee %g dBm is not one of the swept thresholds %v", res.KneeDBm, thresholds)
	}
}

// TestCSThresholdSweepDefaults checks the zero-config path: a nil
// threshold list falls back to the default 3 dB grid. A list that
// repeats thresholds of that grid sweeps each of them once.
func TestCSThresholdSweepDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("covered at full scale by TestCSThresholdSweepEndpoints")
	}
	opt := Options{
		Seed:     3,
		Nodes:    50,
		Duration: 1 * sim.Second,
		Warmup:   500 * sim.Millisecond,
		Pairs:    2,
		Rate:     phy.Rate6Mbps,
	}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	repeated := append(append([]float64{}, DefaultCSThresholds...), -90, DefaultCSThresholds[0])
	for _, thresholds := range [][]float64{nil, repeated} {
		res := CSThresholdSweep(tb, opt, thresholds)
		if len(res.Points) != len(DefaultCSThresholds) {
			t.Fatalf("sweep over %v returned %d points, want %d", thresholds, len(res.Points), len(DefaultCSThresholds))
		}
		for i, p := range res.Points {
			if p.ThresholdDBm != DefaultCSThresholds[i] {
				t.Errorf("point %d at %g dBm, want %g", i, p.ThresholdDBm, DefaultCSThresholds[i])
			}
			if p.Arm != CSAt(p.ThresholdDBm) {
				t.Errorf("point %d arm %q does not match CSAt(%g)", i, p.Arm, p.ThresholdDBm)
			}
		}
	}
}
