package conformance

import (
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// mobileSpecs is the movement matrix mobility conformance runs each arm
// through: one spec per model, pedestrian-to-vehicular speeds, all with
// shadowing re-draws so the mobility.Channel seam is on the hook too.
var mobileSpecs = []mobility.Spec{
	{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 8},
	{Kind: mobility.RandomWalk, SpeedMps: 1.5, DecorrM: 8},
	{Kind: mobility.Vehicular, SpeedMps: 15, DecorrM: 8},
}

// testMobileDeterminism replays the mobile exposed geometry under every
// movement model with the same seed and requires bit-identical goodput
// — trajectories, shadowing re-draws and incremental medium patches
// must all derive from the seed alone.
func testMobileDeterminism(t *testing.T, armName string) {
	for _, spec := range mobileSpecs {
		a := MobileExposedPair(spec)
		fa := NewSim(armName, a, 7, 500*sim.Millisecond, 1500*sim.Millisecond, traffic.Spec{})
		fa.Run(1500 * sim.Millisecond)
		if fa.Epochs() == 0 {
			t.Fatalf("%s/%s: manager applied no position epochs — the fixture tested a static run", a.Name, spec)
		}
		ga := fa.Results()
		gb := RunSaturated(armName, a, 7, 500*sim.Millisecond, 1500*sim.Millisecond)
		for i := range gb {
			if math.Float64bits(ga[i].Mbps) != math.Float64bits(gb[i]) {
				t.Fatalf("%s/%s flow %d: same seed diverged: %.4f vs %.4f", a.Name, spec, i, ga[i].Mbps, gb[i])
			}
		}
		if SumMbps(gb) <= 0 {
			t.Fatalf("%s/%s: determinism fixture moved no traffic", a.Name, spec)
		}
	}
}

// testMobileWorkerEquivalence runs the exposed-terminal experiment on a
// mobile testbed at 1 and 8 workers and requires bit-identical per-flow
// results — mobility state is per-trial, so parallel dispatch must not
// leak into trajectories.
func testMobileWorkerEquivalence(t *testing.T, armName string) {
	tb := topo.NewTestbed(50, 11)
	run := func(workers int) [][]experiments.FlowResult {
		opt := experiments.Options{
			Seed:     11,
			Nodes:    50,
			Duration: 2 * sim.Second,
			Warmup:   1 * sim.Second,
			Pairs:    3,
			Rate:     phy.Rate6Mbps,
			Workers:  workers,
			Arms:     []experiments.Protocol{experiments.Protocol(armName)},
			Mobility: mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 4, RangeM: 10, DecorrM: 10},
		}
		ex := experiments.ExposedTerminals(tb, opt)
		return ex.Flows[experiments.Protocol(armName)]
	}
	serial := run(1)
	parallel := run(8)
	if len(parallel) != len(serial) {
		t.Fatalf("8 workers returned %d runs, serial %d", len(parallel), len(serial))
	}
	for ri := range serial {
		for fi := range serial[ri] {
			a, b := serial[ri][fi], parallel[ri][fi]
			if math.Float64bits(a.Mbps) != math.Float64bits(b.Mbps) || a.VpktsSent != b.VpktsSent {
				t.Fatalf("run %d flow %d: serial %v vs 8 workers %v", ri, fi, a.Mbps, b.Mbps)
			}
		}
	}
}

// testMobileConservation runs the conservation contract on the mobile
// clean link while the endpoints wander: every accepted packet is
// delivered, abandoned, or still queued — motion may cost retries but
// never packets.
func testMobileConservation(t *testing.T, armName string) {
	fs := conservation(t, armName, MobileCleanLink(mobileSpecs[0]))
	if fs.Epochs() == 0 {
		t.Fatal("manager applied no position epochs — conservation ran statically")
	}
}
