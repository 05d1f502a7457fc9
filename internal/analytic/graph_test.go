package analytic

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestConditionalPRRMatchesIsolation holds the oracle's interference-free
// reception ratio to the one the testbed classifies links by, across
// every rate from sensitivity to -60 dBm in 0.013 dB steps. The two are
// not bit-equal: conditionalPRR takes the noise floor through mW and
// back, and MWToDBm(DBmToMW(x)) need not return x's last bit.
func TestConditionalPRRMatchesIsolation(t *testing.T) {
	wire := (&frame.Dot11Data{PayloadLen: mac.DefaultPayload}).WireSize()
	for id := phy.Rate6Mbps; id <= phy.Rate54Mbps; id++ {
		r := phy.RateByID(id)
		for i := 0; i <= 2461; i++ {
			dbm := phy.SensitivityDBm + float64(i)*0.013
			got := conditionalPRR(r, radio.DBmToMW(dbm), 0, wire)
			want := phy.IsolationPRR(r, dbm, wire)
			if d := math.Abs(got - want); d > 1e-12 {
				t.Fatalf("%v at %.3f dBm: conditionalPRR %v, IsolationPRR %v (Δ %.3g > 1e-12)", r, dbm, got, want, d)
			}
		}
	}
}

// TestSyntheticEdgeAPI pins the hand-built graph surface: sense edges
// are symmetric and idempotent, harm edges directed, self-edges
// ignored, and the counters see through duplicates.
func TestSyntheticEdgeAPI(t *testing.T) {
	g := NewSynthetic(4)
	if g.N() != 4 {
		t.Fatalf("N() = %d, want 4", g.N())
	}
	if g.SenseEdges() != 0 || g.HarmEdges() != 0 {
		t.Fatal("fresh graph must have no edges")
	}

	g.AddSense(0, 1)
	g.AddSense(1, 0) // duplicate, reversed
	g.AddSense(2, 2) // self, ignored
	if !g.Sensed(0, 1) || !g.Sensed(1, 0) {
		t.Fatal("sense edge must be symmetric")
	}
	if g.Sensed(0, 2) || g.Sensed(2, 2) {
		t.Fatal("phantom sense edges")
	}
	if got := g.SenseEdges(); got != 1 {
		t.Fatalf("SenseEdges = %d, want 1", got)
	}

	g.AddHarm(0, 3)
	g.AddHarm(0, 3) // duplicate
	g.AddHarm(1, 1) // self, ignored
	if !g.Harms(0, 3) {
		t.Fatal("harm edge 3→0 missing")
	}
	if g.Harms(3, 0) {
		t.Fatal("harm must stay directed")
	}
	if got := g.HarmEdges(); got != 1 {
		t.Fatalf("HarmEdges = %d, want 1", got)
	}
}

// TestSyntheticHarmRatios: AddHarm must force the victim's data channel
// to a full kill under concurrency (interferer-first ratio 0) while
// leaving the victim-locked-first path and the reverse channel alone —
// synthetic harm models a hidden terminal, not a jammed ACK.
func TestSyntheticHarmRatios(t *testing.T) {
	g := NewSynthetic(2)
	dVF, dIF, rVF, rIF := g.Ratios(0, 1)
	if dVF != 1 || dIF != 1 || rVF != 1 || rIF != 1 {
		t.Fatalf("no-edge ratios = %v %v %v %v, want all 1", dVF, dIF, rVF, rIF)
	}
	g.AddHarm(0, 1)
	dVF, dIF, rVF, rIF = g.Ratios(0, 1)
	if dVF != 0 || dIF != 0 {
		t.Fatalf("harmed data ratios = %v %v, want 0 0", dVF, dIF)
	}
	if rVF != 1 || rIF != 1 {
		t.Fatalf("reverse ratios changed to %v %v after data harm", rVF, rIF)
	}
	// The victim's view of the interferer is untouched.
	if dVF, dIF, _, _ := g.Ratios(1, 0); dVF != 1 || dIF != 1 {
		t.Fatalf("interferer's own ratios changed: %v %v", dVF, dIF)
	}
}

// TestExtractExposedPair: an exposed pair's senders hear each other, so
// the extractor must produce a sense edge; the pair was drawn so each
// cross-signal is weak, so neither flow should classify the other as an
// interferer.
func TestExtractExposedPair(t *testing.T) {
	tb := topo.NewTestbed(50, 42)
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(42).Stream(1))
	pairs := tb.ExposedPairs(sim.NewRNG(42^0xf16), 3)
	if len(pairs) == 0 {
		t.Skip("no exposed pairs on this seed")
	}
	for _, p := range pairs {
		g, err := Extract(m, []topo.Link{p.A, p.B}, ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Sensed(0, 1) {
			t.Errorf("exposed pair %v/%v: senders must sense each other", p.A, p.B)
		}
		if g.Harms(0, 1) && g.Harms(1, 0) {
			t.Errorf("exposed pair %v/%v: mutual harm contradicts the draw constraints", p.A, p.B)
		}
	}
}

// TestExtractHiddenPair: hidden pairs have out-of-range senders with
// strong interference at both receivers — no sense edge, harm both ways.
func TestExtractHiddenPair(t *testing.T) {
	tb := topo.NewTestbed(50, 42)
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(42).Stream(1))
	pairs := tb.HiddenPairs(sim.NewRNG(42^0xf15), 3)
	if len(pairs) == 0 {
		t.Skip("no hidden pairs on this seed")
	}
	sawHarm := false
	for _, p := range pairs {
		shared := p.A.Src == p.B.Src || p.A.Src == p.B.Dst ||
			p.A.Dst == p.B.Src || p.A.Dst == p.B.Dst
		if shared {
			continue
		}
		g, err := Extract(m, []topo.Link{p.A, p.B}, ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if g.Sensed(0, 1) {
			t.Errorf("hidden pair %v/%v: out-of-range senders must not sense", p.A, p.B)
		}
		if g.Harms(0, 1) || g.Harms(1, 0) {
			sawHarm = true
		}
	}
	if !sawHarm {
		t.Error("no hidden pair produced a harm edge — l_interf classification inert")
	}
}

// TestExtractSharedNode: flows sharing an endpoint serialise on one
// radio, so the extractor must emit both a sense edge and mutual harm
// regardless of geometry.
func TestExtractSharedNode(t *testing.T) {
	tb := topo.NewTestbed(50, 42)
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(42).Stream(1))
	pairs := tb.InRangePairs(sim.NewRNG(42^0xf13), 1)
	if len(pairs) == 0 {
		t.Skip("no pairs on this seed")
	}
	a := pairs[0].A
	// Second flow reuses a's source as its destination.
	b := topo.Link{Src: pairs[0].B.Src, Dst: a.Src}
	if b.Src == b.Dst {
		b.Src = pairs[0].B.Dst
	}
	g, err := Extract(m, []topo.Link{a, b}, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Sensed(0, 1) {
		t.Error("shared-node flows must sense each other")
	}
	if !g.Harms(0, 1) || !g.Harms(1, 0) {
		t.Error("shared-node flows must harm each other both ways")
	}
}

// TestExtractRejectsInvalidFlows: self-loops, out-of-range node IDs and
// a node that sends or receives two flows are refused with an error
// (topo.CheckFlows), never a panic.
func TestExtractRejectsInvalidFlows(t *testing.T) {
	tb := topo.NewTestbed(50, 42)
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(42).Stream(1))
	for _, bad := range [][]topo.Link{
		{{Src: 3, Dst: 3}},
		{{Src: -1, Dst: 2}},
		{{Src: 0, Dst: 50}},
		{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}},
		{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}},
	} {
		if _, err := Extract(m, bad, ExtractConfig{}); err == nil {
			t.Errorf("Extract accepted invalid flows %v", bad)
		}
	}
}

// TestExtractRatioBounds sweeps every ordered pair of a multi-flow
// extraction and checks all conditional ratios and isolation PRRs land
// in [0, 1] — the solver treats them as probabilities.
func TestExtractRatioBounds(t *testing.T) {
	tb := topo.NewTestbed(50, 42)
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(42).Stream(1))
	rng := sim.NewRNG(42 ^ 0xbb)
	// Independently drawn pairs can share a sender or a receiver; keep
	// each flow only while the set stays valid.
	var flows []topo.Link
	for _, p := range append(tb.InRangePairs(rng, 3), tb.HiddenPairs(rng, 2)...) {
		for _, f := range [...]topo.Link{p.A, p.B} {
			if topo.CheckFlows(tb.N, append(flows[:len(flows):len(flows)], f)) == nil {
				flows = append(flows, f)
			}
		}
	}
	if len(flows) < 4 {
		t.Skip("not enough flows on this seed")
	}
	g, err := Extract(m, flows, ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if g.IsoPRR[i] < 0 || g.IsoPRR[i] > 1 {
			t.Fatalf("IsoPRR[%d] = %v out of [0,1]", i, g.IsoPRR[i])
		}
		for j := range flows {
			if i == j {
				continue
			}
			dVF, dIF, rVF, rIF := g.Ratios(i, j)
			for _, v := range []float64{dVF, dIF, rVF, rIF} {
				if v < 0 || v > 1 {
					t.Fatalf("ratio out of [0,1] for pair (%d,%d): %v %v %v %v", i, j, dVF, dIF, rVF, rIF)
				}
			}
		}
	}
	// The extracted graph must also solve cleanly under both arms.
	for _, arm := range []Arm{ArmCSMA, ArmCMAP} {
		r := Solve(g, Options{Arm: arm})
		if !r.Converged {
			t.Fatalf("%v: extracted graph did not converge (residual %.2e)", arm, r.Residual)
		}
	}
}
