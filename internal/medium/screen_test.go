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

// candidates turns what construction put to the screen, per asking
// node, into each row's candidate set, ascending: construction asks
// each unordered pair once, from its lower end, so row a's candidates
// are those a asked about and those that asked about a. A pair asked
// twice shows up as a repeat.
func candidates(screened [][]int) [][]int {
	rows := make([][]int, len(screened))
	for a, bs := range screened {
		rows[a] = append(rows[a], bs...)
		for _, b := range bs {
			rows[b] = append(rows[b], a)
		}
	}
	for _, row := range rows {
		slices.Sort(row)
	}
	return rows
}

// TestScreenRefusesMost keeps the optimisation from silently
// disappearing: on the mobile_churn layout (1000 nodes at 200/km², ~700
// grid candidates per node of which ~37 are audible) construction must
// put every unordered candidate pair to the screen exactly once — twice
// its askings are the ordered candidates a full set of row rebuilds
// screens, row for row — have it refuse at least 85 % of them, and
// evaluate the model on at most 1.25× the entries it keeps, one
// evaluation serving both rows of a pair. A row rebuilt after a move
// runs the same computation over the whole row (TestLazyRows).
func TestScreenRefusesMost(t *testing.T) {
	s := topo.UniformDisk(1000, 200, 1)
	n := s.N()
	model := &countingModel{inner: s.Model.(gridModel), screened: make([][]int, n)}
	rows, grid := medium.BuildDeliveries(s.Params, model, s.Pos, 1)
	kept := 0
	for _, row := range rows {
		kept += len(row)
	}
	t.Logf("construction: %d candidates, %d refused, %d evaluated, %d kept", model.asked, model.refused, model.evaluated, kept)
	if 100*model.refused < 85*model.asked {
		t.Fatalf("the screen refused %d of %d candidates, under 85 %%", model.refused, model.asked)
	}
	if float64(model.evaluated) > 1.25*float64(kept) {
		t.Fatalf("%d model evaluations for %d kept entries, over 1.25×", model.evaluated, kept)
	}
	built := candidates(model.screened)
	for a, row := range built {
		if slices.Contains(row, a) {
			t.Fatalf("node %d was put to the screen against itself", a)
		}
		for k := 1; k < len(row); k++ {
			if row[k] == row[k-1] {
				t.Fatalf("the pair (%d, %d) was put to the screen twice", a, row[k])
			}
		}
	}
	asked := model.asked

	// Every row rebuilt over the same positions: a zero-length batch
	// marks them all stale, and a full read of each rebuilds it.
	m := medium.NewFromRows(sim.NewScheduler(), s.Params, model, s.Pos, sim.NewRNG(1), rows, grid)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	m.MoveNodes(ids, s.Pos)
	*model = countingModel{inner: model.inner, screened: make([][]int, n)}
	for i := 0; i < n; i++ {
		if k := m.NeighborCount(i); k != len(rows[i]) {
			t.Fatalf("row %d has %d receivers rebuilt, %d as built", i, k, len(rows[i]))
		}
		got := model.screened[i]
		slices.Sort(got)
		if !slices.Equal(got, built[i]) {
			t.Fatalf("row %d's rebuild screened %d candidates, construction %d (or a different set)", i, len(got), len(built[i]))
		}
	}
	if model.asked != 2*asked {
		t.Fatalf("the row rebuilds put %d ordered candidates to the screen, construction %d unordered", model.asked, asked)
	}
	if model.asked < 500*n {
		t.Fatalf("only %d ordered candidates were put to the screen", model.asked)
	}
}

// TestLazyRows pins the lazy contract of a delivery row on the
// mobile_churn layout: New puts no pair to the screen and evaluates
// none, and a first frame screens only its sender's attended
// candidates; a MoveNodes batch evaluates no pair; the
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
	built := candidates(model.screened)
	sched := sim.NewScheduler()
	m := medium.NewFromRows(sched, s.Params, model, s.Pos, sim.NewRNG(1), rows, grid)
	reset := func() { *model = countingModel{inner: model.inner, screened: make([][]int, n)} }
	quiet := func(what string) {
		t.Helper()
		if model.asked != 0 || model.evaluated != 0 {
			t.Fatalf("%s put %d candidates to the screen and evaluated %d", what, model.asked, model.evaluated)
		}
	}

	// Stations on every seventh node; a frame from one of them, in a
	// later instant than the attaches so it does not go to every radio, must put
	// to the screen exactly the attended ones of construction's
	// candidates for its row, and nothing of any other row.
	const src = 7
	var attended []int // in ascending order, as built[src] is
	for _, b := range built[src] {
		if b%7 == 0 {
			attended = append(attended, b)
		}
	}
	attach := func(m *medium.Medium, sched *sim.Scheduler) {
		for i := 0; i < n; i += 7 {
			m.Radio(i).SetHandler(medium.NopHandler{})
		}
		sched.Run(sched.Now() + sim.Microsecond)
	}
	transmit := func(m *medium.Medium, what string) {
		t.Helper()
		m.Radio(src).Transmit(&frame.Dot11Data{Src: frame.AddrFromID(src), Dst: frame.AddrFromID(0), PayloadLen: 1400}, phy.RateByID(phy.Rate6Mbps))
		got := model.screened[src]
		slices.Sort(got)
		if len(attended) == 0 || !slices.Equal(got, attended) {
			t.Fatalf("%s: a frame from %d screened %d candidates, want the %d attended of construction's %d", what, src, len(got), len(attended), len(built[src]))
		}
		for i := range model.screened {
			if i != src && len(model.screened[i]) != 0 {
				t.Fatalf("%s: a frame from %d screened %d candidates of node %d's row", what, src, len(model.screened[i]), i)
			}
		}
	}

	// New builds no row; its first frame builds only an attended part.
	reset()
	lazySched := sim.NewScheduler()
	lazy := medium.New(lazySched, s.Params, model, s.Pos, sim.NewRNG(1))
	attach(lazy, lazySched)
	quiet("New and the attaches")
	transmit(lazy, "on a New medium")
	lazySched.RunAll()

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

	// The same frame after a batch, then a full read of its row.
	attach(m, sched)
	m.MoveNodes(ids, s.Pos)
	reset()
	transmit(m, "after a batch")
	reset()
	if k := m.NeighborCount(src); k != len(rows[src]) {
		t.Fatalf("row %d has %d receivers after a frame, %d as built", src, k, len(rows[src]))
	}
	got := model.screened[src]
	slices.Sort(got)
	if !slices.Equal(got, built[src]) {
		t.Fatalf("the full read after a frame screened %d candidates, construction %d (or a different set)", len(got), len(built[src]))
	}
	sched.RunAll()
}
