package experiments

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// goldenMobileChurnPath pins a churn-shaped mobile run bit for bit: a
// uniform disk of a few hundred nodes at 200/km², every node on a
// waypoint at 3 m/s with its shadowing re-drawn every 10 m, and Poisson
// flows at 1 Mb/s each whose senders go up and down every 200 ms on
// average. Every epoch leaves every delivery row stale and most senders
// transmit their first frame over a stale row, so this pins the lazy
// row path the way the mobile_churn bench workload drives it, where the
// mobile golden traces pin saturated pairs on the 50-node testbed.
// Regenerate an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenMobileChurn -update
var goldenMobileChurnPath = filepath.Join("testdata", "golden_mobile_churn.json")

// loudestFlows picks count flows over the testbed's isolation
// measurements: every stride-th node sends to the not-yet-used node that
// hears it loudest, so no node serves two flows and every link is a
// strong one.
func loudestFlows(tb *topo.Testbed, count int) []topo.Link {
	stride := max(tb.N/count, 1)
	used := make([]bool, tb.N)
	var flows []topo.Link
	for src := 0; src < tb.N && len(flows) < count; src += stride {
		if used[src] {
			continue
		}
		best := -1
		for dst, rss := range tb.RSS[src] {
			if dst != src && !used[dst] && tb.PRR[src][dst] > 0 && (best < 0 || rss > tb.RSS[src][best]) {
				best = dst
			}
		}
		if best < 0 {
			continue
		}
		used[src], used[best] = true, true
		flows = append(flows, topo.Link{Src: src, Dst: best})
	}
	return flows
}

// captureMobileChurn runs CSMA and CMAP for 400 ms each over one layout
// and records every flow's goodput, arrival ledger and delivery delays.
func captureMobileChurn() sweepRecorder {
	const n, seed, dur = 300, 1, 400 * sim.Millisecond
	tb := topo.UniformDisk(n, 200, seed).Testbed()
	flows := loudestFlows(tb, n/10+2)
	load := traffic.Spec{Kind: traffic.Poisson, UpMean: 200 * sim.Millisecond, DownMean: 200 * sim.Millisecond}.
		WithOfferedMbps(1, mac.DefaultPayload)
	var r sweepRecorder
	for _, arm := range []Protocol{CSMAOn, CMAP} {
		fs, err := NewFlowSim(tb, FlowSimConfig{
			Arm:      arm,
			Flows:    flows,
			Duration: dur,
			Rate:     phy.Rate6Mbps,
			Traffic:  load,
			Mobility: mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10},
			Seed:     seed,
		})
		if err != nil {
			panic(err)
		}
		fs.Run(dur)
		for _, fr := range fs.Results() {
			name := fmt.Sprintf("%s/%d:%d", arm, fr.Link.Src, fr.Link.Dst)
			r.floats(name+"/mbps", fr.Mbps)
			r.counts(name+"/offered,accepted,dropped,delivered", fr.OfferedPkts, fr.AcceptedPkts, fr.DroppedPkts, fr.DeliveredPkts)
			r.dist(name+"/delays", fr.Lat.Dist())
		}
	}
	return r
}

// TestGoldenMobileChurn pins the churn-shaped mobile run bit for bit.
func TestGoldenMobileChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tier runs via make golden, not the -short tier")
	}
	checkGoldenSeries(t, goldenMobileChurnPath, captureMobileChurn())
}
