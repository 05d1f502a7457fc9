package medium_test

import (
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/phy"
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
// screened is non-nil it also lists, per sender, the candidates put to
// the screen.
type countingModel struct {
	inner                     gridModel
	asked, refused, evaluated int
	screened                  [][]int
}

func (c *countingModel) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	c.evaluated++
	return c.inner.Loss(a, pa, b, pb)
}

func (c *countingModel) MaxRange(maxLossDB float64) float64 { return c.inner.MaxRange(maxLossDB) }

func (c *countingModel) Screen(maxLossDB float64) *radio.Screen { return c.inner.Screen(maxLossDB) }

func (c *countingModel) Inaudible(s *radio.Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	c.asked++
	if c.screened != nil {
		c.screened[a] = append(c.screened[a], b)
	}
	out := c.inner.Inaudible(s, a, pa, b, pb)
	if out {
		c.refused++
	}
	return out
}

// TestScreenRefusesMost keeps the optimisation from silently
// disappearing: on the mobile_churn layout (1000 nodes at 200/km², ~700
// grid candidates per node of which ~37 are audible) construction must
// put every candidate pair to the screen, have it refuse at least 85 %
// of them, and evaluate the model on at most 2.5× the entries it keeps.
// A row rebuilt after a move runs the same computation (TestLazyRows).
func TestScreenRefusesMost(t *testing.T) {
	s := topo.UniformDisk(1000, 200, 1)
	model := &countingModel{inner: s.Model.(gridModel)}
	rows, _ := medium.BuildDeliveries(s.Params, model, s.Pos, 1)
	kept := 0
	for _, row := range rows {
		kept += len(row)
	}
	t.Logf("construction: %d candidates, %d refused, %d evaluated, %d kept", model.asked, model.refused, model.evaluated, kept)
	if 100*model.refused < 85*model.asked {
		t.Fatalf("the screen refused %d of %d candidates, under 85 %%", model.refused, model.asked)
	}
	if float64(model.evaluated) > 2.5*float64(kept) {
		t.Fatalf("%d model evaluations for %d kept entries, over 2.5×", model.evaluated, kept)
	}
	if model.asked < 500*len(rows) {
		t.Fatalf("only %d candidates were put to the screen", model.asked)
	}
}

// TestLazyRows pins the lazy contract of a delivery row under motion on
// the mobile_churn layout: a MoveNodes batch evaluates no pair; the
// first read of a row after a batch puts to the screen exactly the
// candidates construction put for that row; a second read before the
// next batch evaluates nothing; and a row nobody reads is never built.
// A frame after a batch pays only for its sender's attended candidates:
// it puts to the screen exactly those of construction's candidates a
// station listens on, and leaves the full row unbuilt, so a later full
// read screens construction's whole candidate set.
// The batches move every node by zero metres, so the geometry — and
// with it each row's candidate set — is the one construction saw.
func TestLazyRows(t *testing.T) {
	s := topo.UniformDisk(1000, 200, 1)
	n := s.N()
	model := &countingModel{inner: s.Model.(gridModel), screened: make([][]int, n)}
	rows, grid := medium.BuildDeliveries(s.Params, model, s.Pos, 1)
	built := model.screened
	sched := sim.NewScheduler()
	m := medium.NewFromRows(sched, s.Params, model, s.Pos, sim.NewRNG(1), rows, grid)
	reset := func() { *model = countingModel{inner: model.inner, screened: make([][]int, n)} }
	quiet := func(what string) {
		t.Helper()
		if model.asked != 0 || model.evaluated != 0 {
			t.Fatalf("%s put %d candidates to the screen and evaluated %d", what, model.asked, model.evaluated)
		}
	}

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	reset()
	m.MoveNodes(ids, s.Pos)
	quiet("a whole-network batch")

	// Read every fifth row, through each accessor in turn.
	read := func(i int) int {
		switch i % 3 {
		case 0:
			return m.NeighborCount(i)
		case 1:
			k := 0
			m.ForEachNeighbor(i, func(int, float64) { k++ })
			return k
		default:
			m.GainMW(i, (i+1)%n)
			return m.NeighborCount(i)
		}
	}
	for i := 0; i < n; i += 5 {
		if k := read(i); k != len(rows[i]) {
			t.Fatalf("row %d has %d receivers after a zero-length batch, %d as built", i, k, len(rows[i]))
		}
	}
	for i := 0; i < n; i++ {
		got, want := model.screened[i], built[i]
		slices.Sort(got)
		slices.Sort(want)
		switch {
		case i%5 != 0 && len(got) != 0:
			t.Fatalf("row %d was built though nobody read it: %d candidates screened", i, len(got))
		case i%5 == 0 && !slices.Equal(got, want):
			t.Fatalf("row %d's first read screened %d candidates, construction %d (or a different set)", i, len(got), len(want))
		}
	}

	reset()
	for i := 0; i < n; i += 5 {
		read(i)
	}
	quiet("a second read before the next batch")

	// Stations on every seventh node, then a frame from one of them in
	// a later instant than the attaches, so it is not marked All.
	const src = 7
	for i := 0; i < n; i += 7 {
		m.Radio(i).SetHandler(medium.NopHandler{})
	}
	sched.Run(sim.Microsecond)
	m.MoveNodes(ids, s.Pos)
	reset()
	m.Radio(src).Transmit(&frame.Dot11Data{Src: frame.AddrFromID(src), Dst: frame.AddrFromID(0), PayloadLen: 1400}, phy.RateByID(phy.Rate6Mbps))
	var attended []int // in ascending order, as built[src] is sorted above
	for _, b := range built[src] {
		if b%7 == 0 {
			attended = append(attended, b)
		}
	}
	got := model.screened[src]
	slices.Sort(got)
	if len(attended) == 0 || !slices.Equal(got, attended) {
		t.Fatalf("a frame from %d screened %d candidates, want the %d attended of construction's %d", src, len(got), len(attended), len(built[src]))
	}
	for i := range model.screened {
		if i != src && len(model.screened[i]) != 0 {
			t.Fatalf("a frame from %d screened %d candidates of node %d's row", src, len(model.screened[i]), i)
		}
	}
	reset()
	if k := m.NeighborCount(src); k != len(rows[src]) {
		t.Fatalf("row %d has %d receivers after a frame, %d as built", src, k, len(rows[src]))
	}
	got = model.screened[src]
	slices.Sort(got)
	if !slices.Equal(got, built[src]) {
		t.Fatalf("the full read after a frame screened %d candidates, construction %d (or a different set)", len(got), len(built[src]))
	}
	sched.RunAll()
}
