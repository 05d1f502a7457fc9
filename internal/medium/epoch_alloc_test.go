package medium_test

import (
	"testing"

	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topo"
)

// churnMedium builds the mobile_churn layout (1000 nodes at 200/km²,
// waypoint mobility at 3 m/s) and runs one epoch, which builds the
// motion state and grows the manager's batch. The agenda then holds
// nothing but the manager's epoch tick, so one Step is one epoch.
func churnMedium() (*medium.Medium, *sim.Scheduler) {
	s := topo.UniformDisk(1000, 200, 1)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	ch := mobility.NewChannel(s.Model, s.N())
	m := medium.New(sched, s.Params, ch, s.Pos, rng.Stream(1))
	mg := mobility.New(mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10},
		s.Bounds, m, rng.Stream(mobility.StreamLabel), ch)
	mg.Start()
	sched.Step()
	return m, sched
}

// TestEpochZeroAllocs is the allocation gate for the movement epoch: a
// batch re-buckets the moved nodes and marks the rows stale, and
// allocates nothing for that, nor for the manager. Like the other
// ZeroAllocs gates it averages over runs, which absorbs the runtime's
// own occasional allocations but not one per epoch.
func TestEpochZeroAllocs(t *testing.T) {
	if medium.RaceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	_, sched := churnMedium()
	if allocs := testing.AllocsPerRun(20, func() { sched.Step() }); allocs != 0 {
		t.Fatalf("an epoch allocates %.0f objects", allocs)
	}
}

// TestStaleRowReadsZeroAllocsBeyondLists is the allocation gate for the
// rows an epoch leaves stale: reading k of them after an epoch — every
// fifth node's, about what a run reads — allocates at most one slice
// per non-empty row, the fresh exact-length row copy-on-write needs,
// and nothing for the grid walk or the scratch row.
func TestStaleRowReadsZeroAllocsBeyondLists(t *testing.T) {
	if medium.RaceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	m, sched := churnMedium()
	runs, lists := 0, 0
	allocs := testing.AllocsPerRun(20, func() {
		sched.Step()
		runs++
		for i := 0; i < m.NodeCount(); i += 5 {
			if m.NeighborCount(i) > 0 {
				lists++
			}
		}
	})
	perEpoch := float64(lists) / float64(runs)
	t.Logf("%.0f allocations per epoch and read, %.1f non-empty rows read", allocs, perEpoch)
	if perEpoch == 0 {
		t.Fatal("the rows read were all empty")
	}
	if allocs > perEpoch {
		t.Fatalf("reading %.1f stale non-empty rows allocates %.0f objects", perEpoch, allocs)
	}
}
