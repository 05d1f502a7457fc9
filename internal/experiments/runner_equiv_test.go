package experiments

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// equivOptions is deliberately tiny: equivalence is exact, so the scale
// only needs to cover every experiment code path, not produce statistics.
func equivOptions(seed uint64) Options {
	opt := Quick(seed)
	opt.Duration = 3 * sim.Second
	opt.Warmup = 1 * sim.Second
	opt.Pairs = 3
	opt.Triples = 6
	opt.APRuns = 2
	opt.Meshes = 2
	if testing.Short() {
		opt.Duration = 2 * sim.Second
		opt.Warmup = 1 * sim.Second
		opt.Pairs = 2
		opt.Triples = 4
		opt.APRuns = 1
		opt.Meshes = 1
	}
	return opt
}

// TestSerialParallelEquivalence is the runner's core guarantee: with a
// fixed base seed, the experiment output is bit-identical at 1, 4 and 16
// workers — per-flow results included, not just aggregates.
func TestSerialParallelEquivalence(t *testing.T) {
	t.Parallel()
	tb := testbed(t, 3)
	serial := equivOptions(3)
	serial.Workers = 1
	wantPair := ExposedTerminals(tb, serial)
	wantMesh := Mesh(tb, serial)
	wantAP := AccessPoint(tb, serial)
	wantSweep := HeaderTrailerVsSenders(tb, serial)
	wantInterf := HiddenInterferers(tb, serial)

	for _, workers := range []int{4, 16} {
		opt := equivOptions(3)
		opt.Workers = workers

		gotPair := ExposedTerminals(tb, opt)
		for _, arm := range wantPair.Arms {
			if !reflect.DeepEqual(wantPair.Dists[arm].Values(), gotPair.Dists[arm].Values()) {
				t.Errorf("workers=%d: arm %v aggregate values differ\nserial  %v\nparallel %v",
					workers, arm, wantPair.Dists[arm].Values(), gotPair.Dists[arm].Values())
			}
			if !reflect.DeepEqual(wantPair.Flows[arm], gotPair.Flows[arm]) {
				t.Errorf("workers=%d: arm %v per-flow results differ", workers, arm)
			}
		}

		gotMesh := Mesh(tb, opt)
		if !reflect.DeepEqual(wantMesh.CMAP.Values(), gotMesh.CMAP.Values()) ||
			!reflect.DeepEqual(wantMesh.CSMA.Values(), gotMesh.CSMA.Values()) {
			t.Errorf("workers=%d: mesh scores differ", workers)
		}

		gotAP := AccessPoint(tb, opt)
		if !reflect.DeepEqual(wantAP.Mean, gotAP.Mean) || !reflect.DeepEqual(wantAP.Std, gotAP.Std) {
			t.Errorf("workers=%d: AP means/stds differ", workers)
		}
		for arm := range wantAP.PerSender {
			if !reflect.DeepEqual(wantAP.PerSender[arm].Values(), gotAP.PerSender[arm].Values()) {
				t.Errorf("workers=%d: AP per-sender values differ for arm %v", workers, arm)
			}
		}

		if got := HeaderTrailerVsSenders(tb, opt); !reflect.DeepEqual(wantSweep, got) {
			t.Errorf("workers=%d: sender-sweep points differ\nserial  %+v\nparallel %+v", workers, wantSweep, got)
		}

		if got := HiddenInterferers(tb, opt); !reflect.DeepEqual(wantInterf, got) {
			t.Errorf("workers=%d: hidden-interferer results differ", workers)
		}
	}
}

// TestProgressCoversAllTrials checks the runner's progress plumbing
// through experiments: the final callback reports (total, total), where
// a pair figure counts one trial per (pair, arm), Figure 14 two per
// triple and the calibration two.
func TestProgressCoversAllTrials(t *testing.T) {
	t.Parallel()
	tb := testbed(t, 4)
	opt := equivOptions(4)
	opt.Workers = 4
	var lastDone, lastTotal int
	opt.Progress = func(done, total int) { lastDone, lastTotal = done, total }
	check := func(name string, want int) {
		t.Helper()
		if lastTotal != want || lastDone != want {
			t.Errorf("%s: final progress = (%d, %d), want (%d, %d)", name, lastDone, lastTotal, want, want)
		}
	}
	ex := ExposedTerminals(tb, opt)
	check("Figure 12", len(ex.Flows[CMAP])*len(ex.Arms))
	HiddenInterferers(tb, opt)
	check("Figure 14", 2*len(tb.HiddenInterfererTriples(sim.NewRNG(opt.Seed^0xf14), opt.Triples)))
	RunCalibration(tb, opt)
	check("calibration", 2)
}
