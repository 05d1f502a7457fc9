package medium_test

import (
	"testing"
	"unsafe"

	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestEpochPatchZeroAllocsBeyondRows is the allocation gate for the
// movement epoch: on the mobile_churn layout (1000 nodes at 200/km²,
// waypoint mobility at 3 m/s), once one epoch has built the mover and
// grown its scratch, an epoch allocates at most one slice per delivery
// list it replaces — the fresh exact-length rows copy-on-write needs —
// and nothing for the grid walk, the handoffs or the manager. Like the
// other ZeroAllocs gates it averages over runs, which absorbs the
// runtime's own occasional allocations but not one per epoch.
func TestEpochPatchZeroAllocsBeyondRows(t *testing.T) {
	if medium.RaceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := topo.UniformDisk(1000, 200, 1)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	ch := mobility.NewChannel(s.Model, s.N())
	m := medium.New(sched, s.Params, ch, s.Pos, rng.Stream(1))
	mg := mobility.New(mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10},
		s.Bounds, m, rng.Stream(mobility.StreamLabel), ch)
	mg.Start()
	// The agenda holds nothing but the manager's epoch tick, so one
	// Step is one epoch.
	sched.Step()
	before := make([][]medium.Delivery, s.N())
	epochs, replaced := 0, 0
	epoch := func() {
		copy(before, m.Rows())
		sched.Step()
		epochs++
		for i, row := range m.Rows() {
			if row != nil && unsafe.SliceData(row) != unsafe.SliceData(before[i]) {
				replaced++
			}
		}
	}
	allocs := testing.AllocsPerRun(20, epoch)
	perEpoch := float64(replaced) / float64(epochs)
	t.Logf("%.0f allocations per epoch, %.1f delivery lists replaced", allocs, perEpoch)
	if perEpoch == 0 {
		t.Fatal("the epochs replaced no delivery list")
	}
	if allocs > perEpoch {
		t.Fatalf("an epoch allocates %.0f objects for %.1f replaced delivery lists", allocs, perEpoch)
	}
}
