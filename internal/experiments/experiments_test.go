package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// testOptions is Quick further trimmed so the full experiment suite stays
// test-sized; shapes, not absolute numbers, are asserted. Under -short the
// scale drops again — enough virtual time and topologies for every
// assertion to hold, sized so the whole package finishes in well under a
// minute — while the default mode keeps the full-fidelity scale.
func testOptions(seed uint64) Options {
	opt := Quick(seed)
	opt.Duration = 10 * sim.Second
	opt.Warmup = 5 * sim.Second
	opt.Pairs = 8
	opt.Triples = 30
	opt.APRuns = 2
	opt.Meshes = 6
	if testing.Short() {
		opt.Duration = 6 * sim.Second
		opt.Warmup = 3 * sim.Second
		opt.Pairs = 6
		opt.Triples = 16
		opt.APRuns = 2
		opt.Meshes = 4
	}
	return opt
}

func testbed(t *testing.T, seed uint64) *topo.Testbed {
	t.Helper()
	return topo.NewTestbed(50, seed)
}

func TestProtocolLabels(t *testing.T) {
	labels := map[Protocol]string{
		CSMAOn:        "CS, acks",
		CSMAOffAcks:   "CS off, acks",
		CSMAOffNoAcks: "CS off, no acks",
		CMAP:          "CMAP",
		CMAPWin1:      "CMAP, win=1",
	}
	for p, want := range labels {
		if p.String() != want {
			t.Errorf("%s label = %q, want %q", string(p), p, want)
		}
	}
}

func TestCalibrationSingleLink(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	cal := RunCalibration(testbed(t, 1), opt)
	// §4.2: 5.04 vs 5.07 Mb/s — the two protocols must be comparable, both
	// near 5 Mb/s at the 6 Mb/s rate.
	if cal.CMAPMbps < 4.5 || cal.CMAPMbps > 6.0 {
		t.Errorf("CMAP single link = %.2f Mb/s, want ≈5", cal.CMAPMbps)
	}
	if cal.Dot11Mbps < 4.5 || cal.Dot11Mbps > 6.0 {
		t.Errorf("802.11 single link = %.2f Mb/s, want ≈5", cal.Dot11Mbps)
	}
	ratio := cal.CMAPMbps / cal.Dot11Mbps
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("CMAP/802.11 single-link ratio = %.2f, want ≈1", ratio)
	}
}

func TestFigure12ExposedTerminals(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	ex := ExposedTerminals(testbed(t, 1), opt)
	// The paper's headline: CMAP ≈2× the status quo on exposed terminals.
	gain := ex.Gain(CMAP, CSMAOn)
	if gain < 1.6 {
		t.Errorf("CMAP/CS gain = %.2fx, want ≈2x (CS %.2f, CMAP %.2f)",
			gain, ex.Median(CSMAOn), ex.Median(CMAP))
	}
	// CS-off/no-acks is the concurrency ceiling; CMAP must be close to it.
	if ex.Median(CMAP) < 0.85*ex.Median(CSMAOffNoAcks) {
		t.Errorf("CMAP median %.2f far from ceiling %.2f",
			ex.Median(CMAP), ex.Median(CSMAOffNoAcks))
	}
	// The status quo serialises: near the single-link rate.
	if m := ex.Median(CSMAOn); m < 4.0 || m > 7.5 {
		t.Errorf("CS median = %.2f, want near single-link ≈5.5", m)
	}
	if ex.Format() == "" {
		t.Error("empty Format")
	}
}

func TestFigure13InRangeSenders(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	ex := InRangeSenders(testbed(t, 1), opt)
	// CMAP must not lose to the status quo overall…
	if ex.Dists[CMAP].Mean() < 0.85*ex.Dists[CSMAOn].Mean() {
		t.Errorf("CMAP mean %.2f below CS mean %.2f", ex.Dists[CMAP].Mean(), ex.Dists[CSMAOn].Mean())
	}
	// …and must beat it at the top of the CDF by exploiting the pairs
	// that can run concurrently (the paper's right-hand-side argument).
	if ex.Dists[CMAP].Percentile(90) < ex.Dists[CSMAOn].Percentile(90)*1.1 {
		t.Errorf("CMAP p90 %.2f shows no concurrency wins over CS p90 %.2f",
			ex.Dists[CMAP].Percentile(90), ex.Dists[CSMAOn].Percentile(90))
	}
}

func TestFigure15HiddenTerminals(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	ex := HiddenTerminals(testbed(t, 1), opt)
	// §5.5: CMAP's backoff prevents degradation versus the status quo.
	cs, cm := ex.Dists[CSMAOn].Mean(), ex.Dists[CMAP].Mean()
	if cm < 0.75*cs {
		t.Errorf("CMAP mean %.2f collapsed versus CS mean %.2f", cm, cs)
	}
}

func TestFigure14HiddenInterferers(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	res := HiddenInterferers(testbed(t, 1), opt)
	if len(res.Points) < opt.Triples*8/10 {
		t.Fatalf("only %d of %d triples measured", len(res.Points), opt.Triples)
	}
	// §5.4: hidden interferers are rare (paper 8%)…
	if res.HiddenFrac > 0.25 {
		t.Errorf("hidden-interferer fraction = %.2f, want ≲0.1", res.HiddenFrac)
	}
	// …and the expected CMAP throughput under them is high (paper 0.896).
	if res.ExpectedCMAP < 0.75 || res.ExpectedCMAP > 1.0 {
		t.Errorf("expected CMAP normalised throughput = %.3f, want ≈0.9", res.ExpectedCMAP)
	}
	for _, p := range res.Points {
		if p.NormThroughput < 0 || p.NormThroughput > 1 || p.MinPRR < 0 || p.MinPRR > 1 {
			t.Fatalf("point out of range: %+v", p)
		}
	}
}

func TestFigure16HeaderTrailer(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	tb := testbed(t, 1)
	inr := InRangeSenders(tb, opt)
	hid := HiddenTerminals(tb, opt)
	h := HeaderTrailer(inr, hid)
	// Header-or-trailer delivery dominates header-only delivery…
	if h.InRangeEither.Mean() < h.InRangeHeader.Mean() {
		t.Error("in-range: header|trailer below header alone")
	}
	if h.HiddenEither.Mean() < h.HiddenHeader.Mean() {
		t.Error("hidden: header|trailer below header alone")
	}
	// …and the trailer's benefit is larger out of range (Fig. 16's point).
	gainIn := h.InRangeEither.Mean() - h.InRangeHeader.Mean()
	gainOut := h.HiddenEither.Mean() - h.HiddenHeader.Mean()
	if gainOut < gainIn*0.8 {
		t.Errorf("trailer benefit out-of-range (%.3f) not pronounced versus in-range (%.3f)", gainOut, gainIn)
	}
	// In range, header-or-trailer reception is near certain at the median.
	if h.InRangeEither.Median() < 0.9 {
		t.Errorf("in-range hdr|trl median = %.2f, want ≈1", h.InRangeEither.Median())
	}
	if h.Format() == "" {
		t.Error("empty Format")
	}
}

func TestFigure17And18AccessPoints(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	if !testing.Short() {
		opt.APRuns = 3
	}
	res := AccessPoint(testbed(t, 1), opt)
	if len(res.Ns) == 0 {
		t.Fatal("no AP counts measured")
	}
	// Aggregate throughput grows with cells for every arm, and CMAP beats
	// the status quo on average across N (paper: +21%…+47%).
	var gainSum float64
	var gains int
	for _, n := range res.Ns {
		cs, cm := res.Mean[CSMAOn][n], res.Mean[CMAP][n]
		if cs == 0 || cm == 0 {
			continue
		}
		gainSum += cm / cs
		gains++
	}
	if gains == 0 {
		t.Fatal("no comparable AP points")
	}
	if avg := gainSum / float64(gains); avg < 1.02 {
		t.Errorf("average CMAP/CS AP gain = %.2fx, want >1 (paper 1.2–1.5x)", avg)
	}
	// Figure 18: per-sender median improves (paper 1.8×).
	med := res.PerSender[CMAP].Median() / res.PerSender[CSMAOn].Median()
	if med < 1.0 {
		t.Errorf("per-sender median gain = %.2fx, want >1 (paper 1.8x)", med)
	}
	if res.Format() == "" {
		t.Error("empty Format")
	}
}

func TestFigure19SenderSweep(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	opt.APRuns = 2
	pts := HeaderTrailerVsSenders(testbed(t, 1), opt)
	if len(pts) != 6 {
		t.Fatalf("sweep returned %d points, want 6 (k=2..7)", len(pts))
	}
	for _, p := range pts {
		if p.FlowsMeasured == 0 {
			t.Fatalf("k=%d measured no flows", p.Senders)
		}
		if p.Median < 0 || p.Median > 1 {
			t.Fatalf("k=%d median out of range: %v", p.Senders, p.Median)
		}
	}
	// Figure 19: the median stays usable while the 10th percentile
	// degrades as concurrency grows.
	if pts[0].Median < 0.5 {
		t.Errorf("k=2 median hdr|trl = %.2f, want high", pts[0].Median)
	}
	if pts[5].P10 >= pts[0].Median {
		t.Errorf("k=7 p10 (%.2f) should sit below k=2 median (%.2f)", pts[5].P10, pts[0].Median)
	}
}

func TestFigure20VariableBitRates(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	opt.Pairs = 6
	if testing.Short() {
		opt.Pairs = 4
	}
	series := VariableBitRates(testbed(t, 1), opt)
	if len(series) != 3 {
		t.Fatalf("got %d rate series, want 3", len(series))
	}
	prevCS := 0.0
	for _, rs := range series {
		cs, cm := rs.Ex.Median(CSMAOn), rs.Ex.Median(CMAP)
		// CMAP continues to win at higher bit-rates (§5.8).
		if cm < cs*1.3 {
			t.Errorf("rate %v: CMAP %.2f vs CS %.2f, want clear gain", rs.Rate, cm, cs)
		}
		// Higher bit-rates move the whole figure up.
		if cs < prevCS {
			t.Errorf("rate %v: CS median %.2f below previous rate's %.2f", rs.Rate, cs, prevCS)
		}
		prevCS = cs
	}
}

func TestMeshDissemination(t *testing.T) {
	t.Parallel()
	opt := testOptions(1)
	res := Mesh(testbed(t, 1), opt)
	if res.CMAP.N() == 0 {
		t.Fatal("no mesh topologies ran")
	}
	// §5.7: CMAP gains from exposed relays (paper +52%).
	if g := res.Gain(); g < 1.05 {
		t.Errorf("mesh gain = %.2fx, want >1 (paper 1.52x)", g)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	opt := testOptions(5)
	opt.Pairs = 3
	tb := testbed(t, 5)
	a := ExposedTerminals(tb, opt)
	b := ExposedTerminals(tb, opt)
	for _, arm := range a.Arms {
		av, bv := a.Dists[arm].Values(), b.Dists[arm].Values()
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("arm %v run %d differs: %v vs %v", arm, i, av[i], bv[i])
			}
		}
	}
}

// TestRepeatedArmPanics: a pair sweep keys its results by arm, so an
// arm listed twice is a programming error, refused before any trial
// runs rather than folding two runs of every pair into one
// distribution.
func TestRepeatedArmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated arm did not panic")
		}
	}()
	runPairExperiment("repeat", testbed(t, 1), nil, []Protocol{CSMAOn, CMAP, CSMAOn}, Quick(1))
}

// TestNewFlowSimRejectsInvalidFlows: a flow set topo.CheckFlows refuses
// is an error from NewFlowSim under every arm — before the check, two
// flows from one CMAP sender panicked in the station, and two flows
// into one receiver silently metered both on the second flow.
func TestNewFlowSimRejectsInvalidFlows(t *testing.T) {
	tb := testbed(t, 1)
	for _, arm := range []Protocol{CMAP, CSMAOn} {
		for _, flows := range [][]topo.Link{
			{{Src: 4, Dst: 4}},
			{{Src: 0, Dst: tb.N}},
			{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}},
			{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}},
		} {
			cfg := FlowSimConfig{Arm: arm, Flows: flows, Duration: sim.Second, Seed: 1}
			if _, err := NewFlowSim(tb, cfg); err == nil {
				t.Errorf("%s: NewFlowSim accepted flows %v", arm, flows)
			}
		}
	}
}

// TestScreenScenariosAreValidFlowSets: every screen scenario the seeds
// draw passes topo.CheckFlows and builds a FlowSim, although gridcity
// and uniformdisk join independently drawn pairs.
func TestScreenScenariosAreValidFlowSets(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 30; seed++ {
		for _, sc := range StandardScreenScenarios(seed) {
			if err := topo.CheckFlows(sc.TB.N, sc.Flows); err != nil {
				t.Fatalf("seed %d %s: %v", seed, sc.Name, err)
			}
			cfg := FlowSimConfig{Arm: CMAP, Flows: sc.Flows, Duration: sim.Second, Seed: seed}
			if _, err := NewFlowSim(sc.TB, cfg); err != nil {
				t.Fatalf("seed %d %s: %v", seed, sc.Name, err)
			}
		}
	}
}
