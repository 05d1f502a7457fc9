package experiments

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The checkpoint conformance tier: checkpoint-at-T-then-resume must be
// bit-identical to an uninterrupted run — same FlowResults through
// their IEEE-754 bit patterns, and the same checkpoint bytes when both
// runs are captured again at the end (which audits every serialized
// field of every component, not just the measured outputs). The matrix
// covers every golden scenario × every registered MAC arm, exactly the
// space the golden traces pin.

// conformanceArms is every runnable registered arm: the fixed names
// plus one cs@<dBm> family member.
func conformanceArms() []Protocol {
	var arms []Protocol
	for _, name := range mac.Names() {
		if strings.Contains(name, "<") {
			continue // family syntax hint, not a runnable name
		}
		arms = append(arms, Protocol(name))
	}
	arms = append(arms, CSAt(-82))
	return arms
}

// conformanceOptions is a reduced scale: the matrix is about state
// fidelity, not figure values, so runs are short. Scenario topologies
// still come from the golden pickers over the golden testbed.
func conformanceOptions(seed uint64) Options {
	return Options{
		Seed:     seed,
		Nodes:    50,
		Duration: 800 * sim.Millisecond,
		Warmup:   400 * sim.Millisecond,
		Rate:     phy.Rate6Mbps,
	}
}

func flowSimConfig(tp string, flows []topo.Link, opt Options, spec traffic.Spec, runSeed uint64) FlowSimConfig {
	return FlowSimConfig{
		Arm:      Protocol(tp),
		Flows:    flows,
		Duration: opt.Duration,
		Warmup:   opt.Warmup,
		Rate:     opt.Rate,
		Traffic:  spec,
		Seed:     runSeed,
	}
}

// requireSameResults compares two result sets bit-exactly, including
// the latency recorders' full sample sequences.
func requireSameResults(t *testing.T, label string, a, b []FlowResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d flows", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Link != y.Link {
			t.Fatalf("%s flow %d: link %v vs %v", label, i, x.Link, y.Link)
		}
		if math.Float64bits(x.Mbps) != math.Float64bits(y.Mbps) {
			t.Errorf("%s flow %d: Mbps %v (%016x) vs %v (%016x)",
				label, i, x.Mbps, math.Float64bits(x.Mbps), y.Mbps, math.Float64bits(y.Mbps))
		}
		if x.VpktsSent != y.VpktsSent || x.VpktsHeader != y.VpktsHeader || x.VpktsHdrOrTrail != y.VpktsHdrOrTrail {
			t.Errorf("%s flow %d: visibility (%d,%d,%d) vs (%d,%d,%d)", label, i,
				x.VpktsSent, x.VpktsHeader, x.VpktsHdrOrTrail, y.VpktsSent, y.VpktsHeader, y.VpktsHdrOrTrail)
		}
		if x.OfferedPkts != y.OfferedPkts || x.AcceptedPkts != y.AcceptedPkts ||
			x.DroppedPkts != y.DroppedPkts || x.DeliveredPkts != y.DeliveredPkts {
			t.Errorf("%s flow %d: arrivals (%d,%d,%d,%d) vs (%d,%d,%d,%d)", label, i,
				x.OfferedPkts, x.AcceptedPkts, x.DroppedPkts, x.DeliveredPkts,
				y.OfferedPkts, y.AcceptedPkts, y.DroppedPkts, y.DeliveredPkts)
		}
		switch {
		case (x.Lat == nil) != (y.Lat == nil):
			t.Errorf("%s flow %d: one side has a latency recorder, the other not", label, i)
		case x.Lat != nil:
			if !reflect.DeepEqual(*x.Lat, *y.Lat) {
				t.Errorf("%s flow %d: latency recorders diverge", label, i)
			}
		}
	}
}

// TestCheckpointResumeBitIdentical is the conformance matrix: run A
// straight through; run B to a midpoint, checkpoint, rebuild a fresh
// skeleton, resume, finish. Results and end-of-run checkpoint bytes
// must match exactly. The saturated cases and the traffic-churn case
// carry a "/shards1" suffix: the subtest names stay fixed for -run
// patterns and test listings.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const seed = 1
	opt := conformanceOptions(seed)
	tb := topo.NewTestbed(opt.Nodes, seed)
	arms := conformanceArms()
	if testing.Short() {
		arms = []Protocol{CSMAOn, CMAP}
	}
	for _, tp := range goldenTopologies(tb, seed) {
		for _, arm := range arms {
			tp, arm := tp, arm
			t.Run(tp.name+"/"+string(arm)+"/shards1", func(t *testing.T) {
				t.Parallel()
				runSeed := seed + arm.seedSalt()*104729
				cfg := flowSimConfig(string(arm), tp.flows, opt, traffic.Saturate(), runSeed)
				checkpointResumeCase(t, tb, cfg, opt.Duration/2, opt.Duration)
			})
		}
	}
	// Mobile spot checks: trajectories, movement RNG streams, shadow
	// epochs and the incremental medium's patched delivery lists must
	// survive the cut too, for every movement model.
	mobileSpecs := []mobility.Spec{
		{Kind: mobility.Waypoint, SpeedMps: 5, RangeM: 12, DecorrM: 10},
		{Kind: mobility.RandomWalk, SpeedMps: 2, RangeM: 12, DecorrM: 10},
		{Kind: mobility.Vehicular, SpeedMps: 15, DecorrM: 10},
	}
	if testing.Short() {
		mobileSpecs = mobileSpecs[:1]
	}
	for _, spec := range mobileSpecs {
		spec := spec
		for _, arm := range []Protocol{CSMAOn, CMAP} {
			arm := arm
			t.Run("exposed/mobile-"+spec.Kind.String()+"/"+string(arm), func(t *testing.T) {
				t.Parallel()
				tp := goldenTopologies(tb, seed)[0]
				cfg := flowSimConfig(string(arm), tp.flows, opt, traffic.Saturate(), seed+arm.seedSalt()*104729)
				cfg.Mobility = spec
				checkpointResumeCase(t, tb, cfg, opt.Duration/2, opt.Duration)
			})
		}
	}
	// Traffic-mode spot checks: sources, latency recorders and churn
	// timers must survive the cut too.
	spec := traffic.PoissonAt(300)
	spec.UpMean, spec.DownMean = 120*sim.Millisecond, 120*sim.Millisecond
	t.Run("exposed/traffic-churn/shards1", func(t *testing.T) {
		t.Parallel()
		tp := goldenTopologies(tb, seed)[0]
		cfg := flowSimConfig(string(CMAP), tp.flows, opt, spec, seed+12345)
		checkpointResumeCase(t, tb, cfg, opt.Duration/2, opt.Duration)
	})
	// A cut with a sub-sensitivity signal on the air at a locked
	// receiver: that signal is in no active set, only in the radio's weak
	// count and in its transmission's stored delivery snapshot, and the
	// resumed run has to depart it from there mid-reception. Only the
	// four endpoints hear anything, so the flows have to bring the weak
	// cross link themselves: take the first sampled exposed pair that has
	// such an instant (the golden one's endpoints never do — its only
	// weak signal at a locked receiver is one the skeleton holds too).
	t.Run("exposed/cmap/weak-on-air", func(t *testing.T) {
		t.Parallel()
		for _, p := range tb.ExposedPairs(sim.NewRNG(seed^0x901d), 4) {
			cfg := flowSimConfig(string(CMAP), []topo.Link{p.A, p.B}, opt, traffic.Saturate(), seed+CMAP.seedSalt()*104729)
			mk := func() *FlowSim {
				fs, err := NewFlowSim(tb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			}
			probe, skeleton := mk(), mk()
			for cut := opt.Duration / 2; cut < opt.Duration; cut += 10 * sim.Microsecond {
				if probe.Run(cut); weakAtLockedReceiver(t, probe, skeleton) {
					checkpointResumeCase(t, tb, cfg, cut, opt.Duration)
					return
				}
			}
		}
		t.Fatal("no instant with a weak signal on the air at a locked receiver")
	})
	// A cut inside the frames CMAP's saturated senders put on the air
	// while the run is being wired. Those go to every radio and are the only
	// frames a radio without a station ever hears; the receivers they
	// reached have to survive the cut, or the resumed run never departs
	// them from the bystanders and the end-of-run checkpoints differ.
	t.Run("exposed/cmap/all-on-air", func(t *testing.T) {
		t.Parallel()
		tp := goldenTopologies(tb, seed)[0]
		cfg := flowSimConfig(string(CMAP), tp.flows, opt, traffic.Saturate(), seed+CMAP.seedSalt()*104729)
		const cut = 10 * sim.Microsecond // shorter than any preamble
		probe, err := NewFlowSim(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe.Run(cut)
		bystanders := 0
		for i := 0; i < probe.m.NodeCount(); i++ {
			if _, station := probe.nodes[i]; !station && probe.m.Radio(i).ActiveSignals() > 0 {
				bystanders++
			}
		}
		if bystanders == 0 {
			t.Fatalf("no bystander radio hears a frame at t=%v: no frame of the attach instant is on the air", cut)
		}
		checkpointResumeCase(t, tb, cfg, cut, opt.Duration)
	})
	// Churn × mobility interplay: session timers and movement epochs
	// interleave on the same scheduler, and both owners' state must
	// survive the cut together.
	t.Run("exposed/traffic-churn/mobile-waypoint", func(t *testing.T) {
		t.Parallel()
		tp := goldenTopologies(tb, seed)[0]
		cfg := flowSimConfig(string(CMAP), tp.flows, opt, spec, seed+54321)
		cfg.Mobility = mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 5, RangeM: 12, DecorrM: 10}
		checkpointResumeCase(t, tb, cfg, opt.Duration/2, opt.Duration)
	})
}

// weakAtLockedReceiver reports whether some station's radio of fs is,
// right now, locked onto a frame while sub-sensitivity signals are on
// the air at it — and not the same number of them as at that radio in
// skeleton, an unrun simulation of the same configuration (saturated
// senders put their first frames on the air at construction), so a
// restore that dropped the count could not pass by coincidence.
func weakAtLockedReceiver(t *testing.T, fs, skeleton *FlowSim) bool {
	t.Helper()
	for _, i := range fs.order {
		if r := radioOf(fs, i); r.Locked != nil && r.WeakN > 0 && r.WeakN != radioOf(skeleton, i).WeakN {
			return true
		}
	}
	return false
}

// checkpointResumeCase cuts at t1 and compares at t2.
func checkpointResumeCase(t *testing.T, tb *topo.Testbed, cfg FlowSimConfig, t1, t2 sim.Time) {
	t.Helper()
	mk := func() *FlowSim {
		fs, err := NewFlowSim(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	// A never touches its checkpoint bookkeeping until the final Save
	// derives hash and owner index from a simulation that has already
	// run; B forces both at construction. The byte comparison below
	// therefore also proves the lazy derivation is run-independent.
	a := mk()
	a.Run(t2)
	resA := a.Results()
	var endA bytes.Buffer
	if err := a.Save(&endA); err != nil {
		t.Fatalf("save A at end: %v", err)
	}

	b1 := mk()
	hashB := b1.ConfigHash()
	if err := b1.index(); err != nil {
		t.Fatal(err)
	}
	if got := a.ConfigHash(); got != hashB {
		t.Fatalf("config hash first read after Run+Save %s, first read at construction %s", got, hashB)
	}
	b1.Run(t1)
	var cut bytes.Buffer
	if err := b1.Save(&cut); err != nil {
		t.Fatalf("save B at t=%v: %v", t1, err)
	}
	b2 := mk()
	if err := b2.Resume(bytes.NewReader(cut.Bytes())); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if b2.Now() != t1 {
		t.Fatalf("resumed clock %v, want %v", b2.Now(), t1)
	}
	b2.Run(t2)
	resB := b2.Results()
	var endB bytes.Buffer
	if err := b2.Save(&endB); err != nil {
		t.Fatalf("save B at end: %v", err)
	}

	requireSameResults(t, "A vs resumed B", resA, resB)
	if !bytes.Equal(endA.Bytes(), endB.Bytes()) {
		t.Errorf("end-of-run checkpoints differ (%d vs %d bytes): some component state diverged after resume",
			endA.Len(), endB.Len())
	}
}

// TestCheckpointConfigHashGuard: resuming under a different
// configuration must fail with the typed error, before any state is
// touched — and the hash that guards it is the same whether first read
// before Run, after Run, or only implicitly by Save.
func TestCheckpointConfigHashGuard(t *testing.T) {
	const seed = 1
	opt := conformanceOptions(seed)
	tb := topo.NewTestbed(opt.Nodes, seed)
	tp := goldenTopologies(tb, seed)[0]
	cfg := flowSimConfig(string(CMAP), tp.flows, opt, traffic.Saturate(), 42)
	fs, err := NewFlowSim(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewFlowSim(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := twin.ConfigHash()
	twin.Run(opt.Duration / 4)
	if after := twin.ConfigHash(); after != before {
		t.Fatalf("config hash changed across Run: %s → %s", before, after)
	}
	fs.Run(opt.Duration / 4)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fs.ConfigHash(); got != before {
		t.Fatalf("config hash derived by Save after Run %s, read before Run %s", got, before)
	}
	other := cfg
	other.Seed = 43
	fs2, err := NewFlowSim(tb, other)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.ConfigHash() == before {
		t.Fatal("a different seed hashed to the same configuration")
	}
	if err := fs2.Resume(bytes.NewReader(buf.Bytes())); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("resume under a different config: got %v, want ErrConfigMismatch", err)
	}
}
