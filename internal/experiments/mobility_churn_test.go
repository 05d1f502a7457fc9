package experiments

import (
	"math"
	"testing"

	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestMobilityChurnInterplay drives runFlows with churning Poisson
// flows while every node moves: the two subsystems
// share the scheduler, so this pins their interleaving — same seed
// twice must be bit-identical, packet accounting must stay exact, and
// the motion must demonstrably have happened (the run differs from its
// static twin).
func TestMobilityChurnInterplay(t *testing.T) {
	opt := Quick(5)
	opt.Duration = 2 * sim.Second
	opt.Warmup = 500 * sim.Millisecond
	spec := traffic.PoissonAt(300)
	spec.UpMean, spec.DownMean = 150*sim.Millisecond, 150*sim.Millisecond
	opt.Traffic = spec
	// Arena-wide waypoint at vehicular speed: links must visibly break
	// and re-form, so the mobile run cannot coincide with its static
	// twin even on an unsaturated (arrival-limited) workload.
	opt.Mobility = mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 15, DecorrM: 10}

	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	pair := tb.ExposedPairs(sim.NewRNG(opt.Seed^0x777), 1)[0]
	flows := []topo.Link{pair.A, pair.B}

	run := func(o Options) []FlowResult {
		return runFlows(tb, flows, CMAP, o, 99)
	}
	a, b := run(opt), run(opt)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("expected 2 flows, got %d and %d", len(a), len(b))
	}
	var delivered uint64
	for i := range a {
		if math.Float64bits(a[i].Mbps) != math.Float64bits(b[i].Mbps) ||
			a[i].OfferedPkts != b[i].OfferedPkts || a[i].DeliveredPkts != b[i].DeliveredPkts {
			t.Fatalf("flow %d: same seed diverged: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].AcceptedPkts > a[i].OfferedPkts {
			t.Fatalf("flow %d: accepted %d > offered %d", i, a[i].AcceptedPkts, a[i].OfferedPkts)
		}
		if a[i].DeliveredPkts > a[i].AcceptedPkts {
			t.Fatalf("flow %d: delivered %d > accepted %d", i, a[i].DeliveredPkts, a[i].AcceptedPkts)
		}
		delivered += a[i].DeliveredPkts
	}
	if delivered == 0 {
		t.Fatal("churning mobile flows delivered nothing — the interplay test ran vacuously")
	}

	static := opt
	static.Mobility = mobility.Spec{}
	s := run(static)
	same := true
	for i := range a {
		if math.Float64bits(a[i].Mbps) != math.Float64bits(s[i].Mbps) {
			same = false
		}
	}
	if same {
		t.Fatal("mobile run bit-identical to static run — mobility never touched the medium")
	}
}
