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

// countingModel forwards a gridModel and counts the askings; when
// pairs is non-nil it also tallies them per unordered pair.
type countingModel struct {
	inner                     gridModel
	asked, refused, evaluated int
	pairs                     map[[2]int]*pairTally
}

// pairTally counts how often one unordered pair was put to the screen
// and evaluated.
type pairTally struct{ screened, evaluated int }

func (c *countingModel) tally(a, b int) *pairTally {
	if c.pairs == nil {
		return nil
	}
	key := [2]int{min(a, b), max(a, b)}
	t := c.pairs[key]
	if t == nil {
		t = &pairTally{}
		c.pairs[key] = t
	}
	return t
}

func (c *countingModel) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	c.evaluated++
	if t := c.tally(a, b); t != nil {
		t.evaluated++
	}
	return c.inner.Loss(a, pa, b, pb)
}

func (c *countingModel) MaxRange(maxLossDB float64) float64 { return c.inner.MaxRange(maxLossDB) }

func (c *countingModel) Screen(maxLossDB float64) *radio.Screen { return c.inner.Screen(maxLossDB) }

func (c *countingModel) Inaudible(s *radio.Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	c.asked++
	if t := c.tally(a, b); t != nil {
		t.screened++
	}
	out := c.inner.Inaudible(s, a, pa, b, pb)
	if out {
		c.refused++
	}
	return out
}

// TestScreenRefusesMost keeps the optimisation from silently
// disappearing: on the mobile_churn layout (1000 nodes at 200/km², ~700
// grid candidates per node of which ~37 are audible) construction and a
// whole-network MoveNodes batch must each put every candidate pair to
// the screen — construction every ordered pair, the batch every
// unordered pair once, so exactly half as often — have it refuse at
// least 85 % of them, and evaluate the model on at most 2.5× the
// entries they keep (construction evaluates ordered pairs; the batch
// evaluates each unordered pair once, hence half).
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
		if 100*model.refused < 85*model.asked {
			t.Fatalf("%s: the screen refused %d of %d candidates, under 85 %%", phase, model.refused, model.asked)
		}
		if float64(model.evaluated) > perKept*float64(kept) {
			t.Fatalf("%s: %d model evaluations for %d kept entries, over %.2f×", phase, model.evaluated, kept, perKept)
		}
	}
	check("construction", 2.5)
	built := model.asked
	if built < 500*m.NodeCount() {
		t.Fatalf("construction: only %d candidates were put to the screen", built)
	}
	*model = countingModel{inner: model.inner}

	ids := make([]int, m.NodeCount())
	for i := range ids {
		ids[i] = i
	}
	m.MoveNodes(ids, s.Pos)
	check("whole-network batch", 1.25)
	if 2*model.asked != built {
		t.Fatalf("whole-network batch: %d candidates put to the screen, want exactly half of construction's %d", model.asked, built)
	}
}

// TestMoveNodesMeetsEachPairOnce pins the batch's unit of work: within
// one MoveNodes call no unordered pair is put to the screen more than
// once, nor evaluated more than once — for a whole-network batch, where
// every pair is moved at both ends, and for a half-network batch that
// lists one id twice, where moved pairs meet unmoved ones.
func TestMoveNodesMeetsEachPairOnce(t *testing.T) {
	s := topo.UniformDisk(400, 200, 3)
	model := &countingModel{inner: s.Model.(gridModel)}
	rows, grid := medium.BuildDeliveries(s.Params, model, s.Pos, 1)
	m := medium.NewFromRows(sim.NewScheduler(), s.Params, model, s.Pos, sim.NewRNG(1), rows, grid)
	rng := sim.NewRNG(5)
	jitter := func(i int) geo.Point {
		p := m.Position(i)
		return geo.Point{X: p.X + 30*(rng.Float64()-0.5), Y: p.Y + 30*(rng.Float64()-0.5)}
	}
	whole := make([]int, m.NodeCount())
	var half []int
	for i := range whole {
		whole[i] = i
		if i%2 == 1 {
			half = append(half, i)
		}
	}
	half = append(half, half[len(half)/2])
	for _, bt := range []struct {
		name string
		ids  []int
	}{{"whole network", whole}, {"half network, one id twice", half}} {
		name, ids := bt.name, bt.ids
		pts := make([]geo.Point, len(ids))
		for k, i := range ids {
			pts[k] = jitter(i)
		}
		*model = countingModel{inner: model.inner, pairs: map[[2]int]*pairTally{}}
		m.MoveNodes(ids, pts)
		if len(model.pairs) == 0 {
			t.Fatalf("%s: the batch put no pair to the model", name)
		}
		for pair, n := range model.pairs {
			if n.screened > 1 || n.evaluated > 1 {
				t.Fatalf("%s: pair %v screened %d times and evaluated %d times in one batch", name, pair, n.screened, n.evaluated)
			}
		}
		t.Logf("%s: %d pairs screened, %d evaluated", name, model.asked, model.evaluated)
	}
}
