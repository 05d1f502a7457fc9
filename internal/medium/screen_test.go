package medium_test

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// gridModel is everything the grid path asks of a model.
type gridModel interface {
	radio.Model
	radio.RangeBounder
	radio.Screener
}

// countingModel forwards a gridModel and counts the askings.
type countingModel struct {
	inner                     gridModel
	asked, refused, evaluated int
}

func (c *countingModel) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	c.evaluated++
	return c.inner.Loss(a, pa, b, pb)
}

func (c *countingModel) MaxRange(maxLossDB float64) float64 { return c.inner.MaxRange(maxLossDB) }

func (c *countingModel) Screen(maxLossDB float64) *radio.Screen { return c.inner.Screen(maxLossDB) }

func (c *countingModel) Inaudible(s *radio.Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	c.asked++
	out := c.inner.Inaudible(s, a, pa, b, pb)
	if out {
		c.refused++
	}
	return out
}

// TestScreenRefusesMost keeps the optimisation from silently
// disappearing: on the mobile_churn layout (1000 nodes at 200/km², ~700
// grid candidates per node of which ~37 are audible) construction and a
// whole-network MoveNodes batch must each put every candidate to the
// screen, have it refuse at least 85 % of them, and evaluate the model
// on at most 2.5× the entries they keep (construction evaluates ordered
// pairs; the batch evaluates each unordered pair once, hence half).
func TestScreenRefusesMost(t *testing.T) {
	s := topo.UniformDisk(1000, 200, 1)
	model := &countingModel{inner: s.Model.(gridModel)}
	rows, grid := medium.BuildDeliveries(s.Params, model, s.Pos, 1)
	m := medium.NewFromRows(sim.NewScheduler(), s.Params, model, s.Pos, sim.NewRNG(1), rows, grid)
	kept := 0
	for i := 0; i < m.NodeCount(); i++ {
		kept += m.NeighborCount(i)
	}
	check := func(phase string, perKept float64) {
		t.Helper()
		t.Logf("%s: %d candidates, %d refused, %d evaluated, %d kept", phase, model.asked, model.refused, model.evaluated, kept)
		if model.asked < 500*m.NodeCount() {
			t.Fatalf("%s: only %d candidates were put to the screen", phase, model.asked)
		}
		if 100*model.refused < 85*model.asked {
			t.Fatalf("%s: the screen refused %d of %d candidates, under 85 %%", phase, model.refused, model.asked)
		}
		if float64(model.evaluated) > perKept*float64(kept) {
			t.Fatalf("%s: %d model evaluations for %d kept entries, over %.2f×", phase, model.evaluated, kept, perKept)
		}
		*model = countingModel{inner: model.inner}
	}
	check("construction", 2.5)

	ids := make([]int, m.NodeCount())
	for i := range ids {
		ids[i] = i
	}
	m.MoveNodes(ids, s.Pos)
	check("whole-network batch", 1.25)
}
