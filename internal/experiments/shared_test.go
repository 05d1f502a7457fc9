package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// mediumRows reads every delivery row of m through its public view.
func mediumRows(m *medium.Medium) [][]medium.Delivery {
	rows := make([][]medium.Delivery, m.NodeCount())
	for i := range rows {
		m.ForEachNeighbor(i, func(dst int, gainMW float64) {
			rows[i] = append(rows[i], medium.Delivery{Dst: dst, GainMW: gainMW})
		})
	}
	return rows
}

// rowsDiff names the first entry at which two row sets differ, gains
// compared through their bits, or returns "" when they are equal.
func rowsDiff(a, b [][]medium.Delivery) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Sprintf("row %d: %d entries vs %d", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			x, y := a[i][k], b[i][k]
			if x.Dst != y.Dst || math.Float64bits(x.GainMW) != math.Float64bits(y.GainMW) {
				return fmt.Sprintf("row %d entry %d: %+v vs %+v", i, k, x, y)
			}
		}
	}
	return ""
}

// TestSharedTestbedMatchesFresh proves that Testbed.Shared changes
// nothing a run can see. For every golden topology × every registered
// arm, static and under walk mobility, runFlows over one shared copy
// returns the FlowResults runFlows over the testbed itself does, bit for
// bit, with the trials running concurrently over that one row set as a
// figure's workers do. The walk re-draws no shadowing, so the mobile
// media run over the shared rows and patch them as their nodes move;
// afterwards the shared rows are still a fresh build's, element for
// element.
func TestSharedTestbedMatchesFresh(t *testing.T) {
	const seed = 1
	opt := conformanceOptions(seed)
	tb := topo.NewTestbed(opt.Nodes, seed)
	shared := tb.Shared()
	arms := conformanceArms()
	if testing.Short() {
		arms = []Protocol{CSMAOn, CMAP, "rtscts"}
	}
	walk := mobility.Spec{Kind: mobility.RandomWalk, SpeedMps: 2, RangeM: 12}
	fresh := mediumRows(tb.Build(sim.NewScheduler(), sim.NewRNG(1)))
	tops := goldenTopologies(tb, seed)

	t.Run("runs", func(t *testing.T) {
		for ti, tp := range tops {
			for _, arm := range arms {
				for _, v := range []struct {
					name string
					mob  mobility.Spec
				}{{"static", mobility.Spec{}}, {"walk", walk}} {
					t.Run(tp.name+"/"+string(arm)+"/"+v.name, func(t *testing.T) {
						t.Parallel()
						o := opt
						o.Mobility = v.mob
						runSeed := seed + uint64(ti)*7919 + arm.seedSalt()*104729
						requireSameResults(t, "shared rows vs a fresh build",
							runFlows(shared, tp.flows, arm, o, runSeed), runFlows(tb, tp.flows, arm, o, runSeed))
					})
				}
			}
		}
	})

	// Not vacuous: a walk over the shared rows really patches its medium.
	cfg := flowSimConfig(string(CSMAOn), tops[0].flows, opt, traffic.Saturate(), seed)
	cfg.Mobility = walk
	fs, err := NewFlowSim(shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.Run(opt.Duration)
	if rowsDiff(mediumRows(fs.m), fresh) == "" {
		t.Fatal("a walk over the shared rows patched none of them; the test proves nothing")
	}
	if d := rowsDiff(mediumRows(shared.Build(sim.NewScheduler(), sim.NewRNG(1))), fresh); d != "" {
		t.Fatalf("mobile trials wrote into the shared rows: %s", d)
	}
}
