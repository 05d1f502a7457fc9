package conformance

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// conformanceArms is every arm kind the suite certifies: the four
// carrier-sense/ACK baselines, both CMAP window settings, the RTS/CTS
// handshake, one cs@<dBm> family member, and one spec of each family
// that is no alias. CI runs each as its own matrix entry via
// -run 'TestConformance/<arm>$'.
var conformanceArms = []string{
	"csma",
	"csma-noack",
	"csma-nocs",
	"csma-nocs-noack",
	"cmap",
	"cmap1",
	"rtscts",
	"cs@-82",
	"cmap:win=2:vpkt=16",
	"csma:nocs:rts",
}

// TestConformance is the shared MAC conformance suite: every registered
// arm kind must hold the same steady-state allocation, determinism,
// worker-equivalence and backlog-conservation contracts.
func TestConformance(t *testing.T) {
	for _, armName := range conformanceArms {
		armName := armName
		t.Run(armName, func(t *testing.T) {
			t.Run("ZeroAllocs", func(t *testing.T) { testZeroAllocs(t, armName) })
			t.Run("Determinism", func(t *testing.T) { testDeterminism(t, armName) })
			t.Run("WorkerEquivalence", func(t *testing.T) { testWorkerEquivalence(t, armName) })
			t.Run("Conservation", func(t *testing.T) { testConservation(t, armName) })
			t.Run("MobileDeterminism", func(t *testing.T) { testMobileDeterminism(t, armName) })
			t.Run("MobileWorkerEquivalence", func(t *testing.T) { testMobileWorkerEquivalence(t, armName) })
			t.Run("MobileConservation", func(t *testing.T) { testMobileConservation(t, armName) })
		})
	}
}

// testZeroAllocs drives a saturated clean link to steady state and then
// requires that advancing the simulation allocates nothing: every
// per-frame object (frames, timers, ACK attempts, receive state) must
// come from a pool or an embedded buffer.
func testZeroAllocs(t *testing.T, armName string) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	fs := NewSim(armName, CleanLink(), 1, 0, 1<<62, traffic.Spec{})
	deadline := sim.Time(0)
	cycle := func() {
		deadline += 20 * sim.Millisecond
		fs.Run(deadline)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm up every pool and reusable buffer
	}
	// The whole window is one run: AllocsPerRun divides by its run
	// count in integers, so a leak of under one object per slice would
	// read 0 if each slice were a run.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			cycle()
		}
	}); allocs != 0 {
		t.Fatalf("steady state allocates %.0f objects over 100 20ms slices, want 0", allocs)
	}
	if got := fs.Results()[0].Mbps; got <= 0 {
		t.Fatalf("allocation fixture moved no traffic (%.2f Mb/s) — the gate tested nothing", got)
	}
}

// testDeterminism runs the same seed twice on the interference-rich
// topologies and requires bit-identical goodput — the golden-trace
// property every experiment's reproducibility rests on.
func testDeterminism(t *testing.T, armName string) {
	for _, p := range []Topology{ExposedPair(), HiddenPair()} {
		a := RunSaturated(armName, p, 7, 500*sim.Millisecond, 1500*sim.Millisecond)
		b := RunSaturated(armName, p, 7, 500*sim.Millisecond, 1500*sim.Millisecond)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s flow %d: same seed diverged: %x vs %x (%.4f vs %.4f)",
					p.Name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
			}
		}
		// The hidden pair legitimately delivers nothing under the no-ACK
		// arms (every frame collides and is never retried), so only the
		// exposed fixture must demonstrably move traffic.
		if p.Name == "exposed" && SumMbps(a) <= 0 {
			t.Fatalf("%s: determinism fixture moved no traffic", p.Name)
		}
	}
}

// testWorkerEquivalence runs the exposed-terminal experiment at 1, 4 and
// 16 workers and requires bit-identical per-flow results: trial seeds
// are fixed before dispatch, so parallelism must never leak into
// outcomes.
func testWorkerEquivalence(t *testing.T, armName string) {
	tb := topo.NewTestbed(50, 11)
	run := func(workers int) [][]experiments.FlowResult {
		opt := experiments.Options{
			Seed:     11,
			Nodes:    50,
			Duration: 2 * sim.Second,
			Warmup:   1 * sim.Second,
			Pairs:    4,
			Rate:     phy.Rate6Mbps,
			Workers:  workers,
			Arms:     []experiments.Protocol{experiments.Protocol(armName)},
		}
		ex := experiments.ExposedTerminals(tb, opt)
		return ex.Flows[experiments.Protocol(armName)]
	}
	serial := run(1)
	for _, workers := range []int{4, 16} {
		parallel := run(workers)
		if len(parallel) != len(serial) {
			t.Fatalf("%d workers returned %d runs, serial %d", workers, len(parallel), len(serial))
		}
		for ri := range serial {
			for fi := range serial[ri] {
				a, b := serial[ri][fi], parallel[ri][fi]
				if math.Float64bits(a.Mbps) != math.Float64bits(b.Mbps) ||
					a.VpktsSent != b.VpktsSent || a.VpktsHeader != b.VpktsHeader {
					t.Fatalf("run %d flow %d: serial %v vs %d workers %v", ri, fi, a.Mbps, workers, b.Mbps)
				}
			}
		}
	}
}

// testConservation runs Poisson arrivals into an unbounded queue on a
// clean link, drains the sender, and requires exact backlog accounting:
// every accepted packet is delivered, abandoned by the MAC, or still
// queued.
func testConservation(t *testing.T, armName string) {
	conservation(t, armName, CleanLink())
}

// conservation is the body shared by the static and mobile conservation
// contracts. It also pins the Counters views against what the flow's
// meter saw, and returns the run for topology-specific checks. The
// source keeps arriving past the horizon, so the run steps on in 1 ms
// increments until the sender is idle and reads every count there.
func conservation(t *testing.T, armName string, tp Topology) *experiments.FlowSim {
	const horizon = 2 * sim.Second
	fs := NewSim(armName, tp, 3, 0, 1<<62, traffic.Spec{Kind: traffic.Poisson, PacketsPerSec: 150, QueueCap: -1})
	sender, receiver := fs.Sender(0), fs.Receiver(0)

	fs.Run(horizon)
	if acc := fs.Results()[0].AcceptedPkts; acc < 100 {
		t.Fatalf("only %d Poisson arrivals by %v — fixture too sparse to mean anything", acc, horizon)
	}
	deadline := horizon
	for !sender.Idle() && deadline < horizon+20*sim.Second {
		deadline += sim.Millisecond
		fs.Run(deadline)
	}
	if !sender.Idle() {
		t.Fatalf("sender failed to drain by %v", deadline)
	}
	r := fs.Results()[0]
	accepted, delivered := r.AcceptedPkts, r.DeliveredPkts
	dropped, queued := sender.Counters().Dropped, uint64(sender.Backlog(tp.Flows[0].Dst))
	if accepted != delivered+dropped+queued {
		t.Fatalf("conservation violated: accepted %d != delivered %d + dropped %d + queued %d",
			accepted, delivered, dropped, queued)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered — conservation held vacuously")
	}
	if c := receiver.Counters(); c.Delivered != delivered {
		t.Fatalf("receiver Counters().Delivered = %d, the flow's meter saw %d", c.Delivered, delivered)
	}
	if c := sender.Counters(); c.Sent < delivered {
		t.Fatalf("sender Counters().Sent = %d < %d delivered", c.Sent, delivered)
	}
	return fs
}

// TestRegistryRoundTrip certifies the registry seam end to end: every
// listed fixed arm name (and a family instance) constructs through
// Lookup and moves traffic on a clean link.
func TestRegistryRoundTrip(t *testing.T) {
	names := mac.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	tried := 0
	for _, name := range append(names, "cs@-82") {
		if strings.Contains(name, "<") {
			continue // family syntax hint, not a constructible name
		}
		if _, err := mac.Lookup(name); err != nil {
			t.Fatalf("listed arm %q does not resolve: %v", name, err)
		}
		g := RunSaturated(name, CleanLink(), 5, 100*sim.Millisecond, 600*sim.Millisecond)
		if g[0] <= 0 {
			t.Errorf("arm %q moved no traffic on a clean link", name)
		}
		tried++
	}
	if tried < 8 {
		t.Fatalf("only %d arms exercised, expected at least the 7 fixed arms + cs@-82", tried)
	}
}

// TestSanityBoundRTSCTS pins the textbook hidden-terminal story: on a
// pair whose senders cannot hear each other but whose receivers are
// exposed to both, the RTS/CTS handshake must clearly beat plain CSMA,
// and on the exposed pair it must not beat it (the handshake only adds
// overhead there).
func TestSanityBoundRTSCTS(t *testing.T) {
	warm, dur := 1*sim.Second, 3*sim.Second
	hidden := HiddenPair()
	csma := SumMbps(RunSaturated("csma", hidden, 1, warm, dur))
	rts := SumMbps(RunSaturated("rtscts", hidden, 1, warm, dur))
	if rts < csma {
		t.Errorf("hidden pair: RTS/CTS %.2f Mb/s < plain CSMA %.2f Mb/s", rts, csma)
	}
	if rts < 2*csma {
		t.Errorf("hidden pair: RTS/CTS %.2f Mb/s should clearly beat CSMA %.2f Mb/s (want ≥2×)", rts, csma)
	}
}

// TestSanityBoundCSThreshold pins the carrier-sense threshold tradeoff
// the cs@<dBm> sweep exists to show, at its two crisp endpoints. On the
// exposed pair, a blinder threshold unlocks free concurrency: goodput
// must rise. On the protected pair, sensing is the victim flow's only
// shield: its goodput must fall.
func TestSanityBoundCSThreshold(t *testing.T) {
	warm, dur := 1*sim.Second, 3*sim.Second
	sensitive, blind := "cs@-95", "cs@-85"

	exSens := SumMbps(RunSaturated(sensitive, ExposedPair(), 1, warm, dur))
	exBlind := SumMbps(RunSaturated(blind, ExposedPair(), 1, warm, dur))
	if exBlind < 1.5*exSens {
		t.Errorf("exposed pair: blind %s %.2f Mb/s should clearly beat sensitive %s %.2f Mb/s (want ≥1.5×)",
			blind, exBlind, sensitive, exSens)
	}

	prSens := RunSaturated(sensitive, ProtectedPair(), 1, warm, dur)[0]
	prBlind := RunSaturated(blind, ProtectedPair(), 1, warm, dur)[0]
	if prSens < 1.5*prBlind {
		t.Errorf("protected pair victim flow: sensitive %s %.2f Mb/s should clearly beat blind %s %.2f Mb/s (want ≥1.5×)",
			sensitive, prSens, blind, prBlind)
	}
}
