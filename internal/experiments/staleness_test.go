package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// stalenessTestOptions is a CI-sized sweep: enough pairs and airtime
// for stable medians without paper-scale cost.
func stalenessTestOptions() Options {
	opt := Quick(7)
	opt.Pairs = 6
	opt.Duration = 4 * sim.Second
	opt.Warmup = 1 * sim.Second
	return opt
}

// TestStalenessSweepAdvantageShrinks pins the figure's qualitative
// result: CMAP beats plain carrier sense on static exposed pairs, and
// that advantage shrinks monotonically (within tolerance) as node
// speed rises — learned conflict maps go stale as the geometry they
// memorised moves out from under them.
func TestStalenessSweepAdvantageShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("staleness sweep is the long-tier mobility figure")
	}
	opt := stalenessTestOptions()
	opt.Arms = []Protocol{CMAP, CSMAOn}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	res := StalenessSweep(tb, opt, []float64{0, 5, 20})
	t.Logf("\n%s", res.Format())

	adv := make([]float64, len(res.Points))
	for i, p := range res.Points {
		adv[i] = p.Gain(CMAP, CSMAOn)
		if p.Dists[CSMAOn].Median() <= 0 {
			t.Fatalf("speed %g: csma median is zero — pairs disconnected, sweep is degenerate", p.SpeedMps)
		}
	}
	if adv[0] <= 1.1 {
		t.Fatalf("static CMAP advantage %.2fx, want > 1.1x on exposed pairs", adv[0])
	}
	// Monotone within tolerance: each point may exceed its predecessor
	// by at most 10% (medians over a finite sample jitter), but the
	// trend must never reverse materially.
	const tol = 1.10
	for i := 1; i < len(adv); i++ {
		if adv[i] > adv[i-1]*tol {
			t.Fatalf("advantage rose from %.2fx (%g m/s) to %.2fx (%g m/s); want monotone shrink within %d%% tolerance",
				adv[i-1], res.Points[i-1].SpeedMps, adv[i], res.Points[i].SpeedMps, int(tol*100-100))
		}
	}
	last := adv[len(adv)-1]
	if last > adv[0]*0.85 {
		t.Fatalf("advantage only fell from %.2fx to %.2fx across the sweep; want a clear staleness decline", adv[0], last)
	}
}

// TestStalenessSweepDeterministic proves the sweep — trajectories,
// shadowing re-draws and all — is bit-identical across worker counts.
func TestStalenessSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the long tier")
	}
	opt := stalenessTestOptions()
	opt.Pairs = 3
	opt.Duration = 2 * sim.Second
	opt.Arms = []Protocol{CMAP, CSMAOn}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	speeds := []float64{0, 8}

	serial := opt
	serial.Workers = 1
	parallel := opt
	parallel.Workers = 4
	a := StalenessSweep(tb, serial, speeds)
	b := StalenessSweep(tb, parallel, speeds)
	for i := range a.Points {
		for _, arm := range a.Arms {
			x, y := a.Points[i].Dists[arm].Values(), b.Points[i].Dists[arm].Values()
			if len(x) != len(y) {
				t.Fatalf("point %d arm %s: %d vs %d samples", i, arm, len(x), len(y))
			}
			for k := range x {
				if x[k] != y[k] {
					t.Fatalf("point %d arm %s sample %d: %v (1 worker) vs %v (4 workers)", i, arm, k, x[k], y[k])
				}
			}
		}
	}
}
