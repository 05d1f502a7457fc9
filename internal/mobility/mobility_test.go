package mobility

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/sim"
)

// fakeMover is a positions-only Mover: what the manager needs, nothing
// of the medium. It records every MoveNode call.
type fakeMover struct {
	sched *sim.Scheduler
	pos   []geo.Point
	moves int
}

func newFakeMover(pos []geo.Point) *fakeMover {
	return &fakeMover{sched: sim.NewScheduler(), pos: append([]geo.Point(nil), pos...)}
}

func (f *fakeMover) NodeCount() int            { return len(f.pos) }
func (f *fakeMover) Position(i int) geo.Point  { return f.pos[i] }
func (f *fakeMover) Scheduler() *sim.Scheduler { return f.sched }
func (f *fakeMover) MoveNode(i int, p geo.Point) {
	f.pos[i] = p
	f.moves++
}

func scatterPts(n int, w, h float64, seed uint64) []geo.Point {
	rng := sim.NewRNG(seed)
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return out
}

// FuzzParseSpec: any string is either an error or a spec whose fields
// are finite, non-negative and within bounds, and which survives a trip
// through Spec.String — never a panic, never a NaN that reads as "not
// moving" or an Inf that moves every node to the arena wall.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"", "none", "waypoint@3", "walk@1.5", "vehicular@20", "waypoint@3@15", " walk@0 ",
		"waypoint@NaN", "waypoint@3@NaN", "walk@Inf", "waypoint@1e300", "waypoint@-0", "waypoint@0x1p-2@1e308",
		"waypoint@1e9", "waypoint@@", "teleport@3", "walk@3@4@5", "waypoint@1_0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			if spec != (Spec{}) {
				t.Fatalf("ParseSpec(%q) failed (%v) and still returned %+v", in, err, spec)
			}
			return
		}
		finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
		if !finite(spec.SpeedMps) || spec.SpeedMps > MaxSpeedMps || !finite(spec.RangeM) {
			t.Fatalf("ParseSpec(%q) = %+v: speed or radius out of range", in, spec)
		}
		if spec.Kind > Vehicular || spec.Epoch != 0 || spec.DecorrM != 0 {
			t.Fatalf("ParseSpec(%q) = %+v: fields the syntax cannot set", in, spec)
		}
		back, err := ParseSpec(spec.String())
		if err != nil || back != spec {
			t.Fatalf("ParseSpec(%q) = %+v renders %q, which parses to %+v (%v)", in, spec, spec.String(), back, err)
		}
	})
}

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"none", Spec{}},
		{"waypoint@3", Spec{Kind: Waypoint, SpeedMps: 3}},
		{"walk@1.5", Spec{Kind: RandomWalk, SpeedMps: 1.5}},
		{"vehicular@20", Spec{Kind: Vehicular, SpeedMps: 20}},
		{"waypoint@3@15", Spec{Kind: Waypoint, SpeedMps: 3, RangeM: 15}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if c.in != "" && c.in != "none" {
			back, err := ParseSpec(got.String())
			if err != nil || back != got {
				t.Fatalf("round trip %q -> %q -> %+v (%v)", c.in, got.String(), back, err)
			}
		}
	}
	for _, bad := range []string{"teleport@3", "waypoint", "walk@-1", "walk@x", "waypoint@3@-2", "waypoint@3@q", "waypoint@3@4@5",
		"waypoint@NaN", "walk@Inf", "waypoint@-Inf", "vehicular@infinity", "waypoint@1e300", "waypoint@1e400", "waypoint@1000000001",
		"waypoint@3@NaN", "waypoint@3@Inf", "walk@3@1e999"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	if s := (Spec{}).String(); s != "none" {
		t.Fatalf("zero spec renders %q, want none", s)
	}
	if s := (Spec{Kind: Kind(99)}).Kind.String(); s != "kind(99)" {
		t.Fatalf("unknown kind renders %q", s)
	}
}

func TestSpecActive(t *testing.T) {
	if (Spec{}).Active() {
		t.Fatal("zero spec is active")
	}
	if (Spec{Kind: Waypoint}).Active() {
		t.Fatal("zero-speed spec is active")
	}
	if !(Spec{Kind: Waypoint, SpeedMps: 1}).Active() {
		t.Fatal("waypoint@1 is not active")
	}
}

// run drives the mover's scheduler through n movement epochs.
func run(mg *Manager, f *fakeMover, n int) {
	f.sched.Run(f.sched.Now() + sim.Time(n)*mg.Spec().Epoch)
}

func TestWaypointStaysInRoamDisk(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 60}
	f := newFakeMover(scatterPts(20, 100, 60, 1))
	home := append([]geo.Point(nil), f.pos...)
	spec := Spec{Kind: Waypoint, SpeedMps: 8, RangeM: 10}
	mg := New(spec, arena, f, sim.NewRNG(2).Stream(StreamLabel), nil)
	mg.Start()
	for e := 0; e < 50; e++ {
		run(mg, f, 1)
		for i, p := range f.pos {
			if d := home[i].Dist(p); d > spec.RangeM+1e-9 {
				t.Fatalf("epoch %d node %d strayed %.2f m from home (roam %g)", e, i, d, spec.RangeM)
			}
			if p.X < arena.MinX || p.X > arena.MaxX || p.Y < arena.MinY || p.Y > arena.MaxY {
				t.Fatalf("node %d left the arena: %+v", i, p)
			}
		}
	}
	if mg.Epochs != 50 {
		t.Fatalf("manager applied %d epochs, want 50", mg.Epochs)
	}
	if f.moves == 0 {
		t.Fatal("no node ever moved")
	}
}

func TestRandomWalkStaysInRoamRect(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 80, MaxY: 40}
	f := newFakeMover(scatterPts(15, 80, 40, 3))
	home := append([]geo.Point(nil), f.pos...)
	spec := Spec{Kind: RandomWalk, SpeedMps: 3, RangeM: 6}
	mg := New(spec, arena, f, sim.NewRNG(4).Stream(StreamLabel), nil)
	mg.Start()
	run(mg, f, 100)
	for i, p := range f.pos {
		if math.Abs(p.X-home[i].X) > spec.RangeM+1e-9 || math.Abs(p.Y-home[i].Y) > spec.RangeM+1e-9 {
			t.Fatalf("node %d strayed to %+v from home %+v (roam %g)", i, p, home[i], spec.RangeM)
		}
	}
	if f.moves == 0 {
		t.Fatal("no node ever moved")
	}
}

func TestVehicularKeepsLaneAndWraps(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 30}
	f := newFakeMover([]geo.Point{{X: 48, Y: 10}, {X: 2, Y: 20}})
	spec := Spec{Kind: Vehicular, SpeedMps: 25}
	mg := New(spec, arena, f, sim.NewRNG(5).Stream(StreamLabel), nil)
	mg.Start()
	run(mg, f, 40) // 4 s at ≥20 m/s crosses the 50 m arena, forcing wraps
	for i, p := range f.pos {
		if p.Y != [2]float64{10, 20}[i] {
			t.Fatalf("node %d changed lane: %+v", i, p)
		}
		if p.X < arena.MinX || p.X > arena.MaxX {
			t.Fatalf("node %d failed to wrap: %+v", i, p)
		}
	}
}

func TestTrajectoriesDeterministic(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 60}
	for _, spec := range []Spec{
		{Kind: Waypoint, SpeedMps: 5, RangeM: 12},
		{Kind: RandomWalk, SpeedMps: 2},
		{Kind: Vehicular, SpeedMps: 15},
	} {
		mk := func() *fakeMover {
			f := newFakeMover(scatterPts(12, 100, 60, 7))
			mg := New(spec, arena, f, sim.NewRNG(9).Stream(StreamLabel), nil)
			mg.Start()
			run(mg, f, 30)
			return f
		}
		a, b := mk(), mk()
		for i := range a.pos {
			if a.pos[i] != b.pos[i] {
				t.Fatalf("%s node %d: same seed diverged: %+v vs %+v", spec, i, a.pos[i], b.pos[i])
			}
		}
	}
}

// batchFake is a fakeMover that also offers the epoch-at-once surface.
type batchFake struct {
	*fakeMover
	batches int
}

func (f *batchFake) MoveNodes(ids []int, pts []geo.Point) {
	f.batches++
	for k, i := range ids {
		f.MoveNode(i, pts[k])
	}
}

// TestStepBatchesWhenOffered pins the manager's hand-off: a mover with
// MoveNodes gets exactly one call per epoch, carrying the same moves in
// the same node order the per-node loop would have made; the shadow
// bumps of the whole epoch are applied before it; and a checkpoint
// restore goes through the same batch.
func TestStepBatchesWhenOffered(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 60}
	spec := Spec{Kind: Waypoint, SpeedMps: 20, DecorrM: 1}
	pts := scatterPts(12, 100, 60, 7)
	loop := newFakeMover(pts)
	batch := &batchFake{fakeMover: newFakeMover(pts)}
	chLoop, chBatch := NewChannel(radio.DefaultIndoor5GHz(1), len(pts)), NewChannel(radio.DefaultIndoor5GHz(1), len(pts))
	mgLoop := New(spec, arena, loop, sim.NewRNG(9).Stream(StreamLabel), chLoop)
	mgBatch := New(spec, arena, batch, sim.NewRNG(9).Stream(StreamLabel), chBatch)
	mgLoop.Start()
	mgBatch.Start()
	run(mgLoop, loop, 10)
	run(mgBatch, batch.fakeMover, 10)
	if batch.batches != 10 {
		t.Fatalf("%d MoveNodes calls over 10 epochs, want 10", batch.batches)
	}
	if batch.moves != loop.moves || loop.moves == 0 {
		t.Fatalf("batched run made %d moves, per-node run %d", batch.moves, loop.moves)
	}
	for i := range pts {
		if batch.pos[i] != loop.pos[i] || chBatch.Epoch(i) != chLoop.Epoch(i) {
			t.Fatalf("node %d: batched %v epoch %d, per-node %v epoch %d",
				i, batch.pos[i], chBatch.Epoch(i), loop.pos[i], chLoop.Epoch(i))
		}
	}
	if err := mgBatch.RestoreState(exportState(t, mgLoop)); err != nil {
		t.Fatal(err)
	}
	if batch.batches != 11 {
		t.Fatalf("restore made %d MoveNodes calls, want one", batch.batches-10)
	}
}

func TestInactiveSpecNeverMoves(t *testing.T) {
	f := newFakeMover(scatterPts(5, 50, 50, 11))
	mg := New(Spec{}, geo.Rect{MaxX: 50, MaxY: 50}, f, sim.NewRNG(1).Stream(StreamLabel), nil)
	mg.Start()
	f.sched.Run(5 * sim.Second)
	if f.moves != 0 || mg.Epochs != 0 {
		t.Fatalf("static spec moved nodes: %d moves, %d epochs", f.moves, mg.Epochs)
	}
}

func TestHandleEventRejectsArgs(t *testing.T) {
	f := newFakeMover(scatterPts(2, 10, 10, 1))
	mg := New(Spec{Kind: Waypoint, SpeedMps: 1}, geo.Rect{MaxX: 10, MaxY: 10}, f, sim.NewRNG(1).Stream(StreamLabel), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("HandleEvent accepted a non-nil arg")
		}
	}()
	mg.HandleEvent("bogus")
}

func TestChannelStaticPassthrough(t *testing.T) {
	inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3, ShadowSigmaDB: 4, Seed: 77}
	ch := NewChannel(inner, 4)
	a, b := geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0}
	if got, want := ch.Loss(0, a, 1, b), inner.Loss(0, a, 1, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("zero-epoch Loss %v != inner %v", got, want)
	}
	if got, want := ch.MaxRange(130), inner.MaxRange(130); got != want {
		t.Fatalf("MaxRange %v != inner %v", got, want)
	}
}

func TestChannelEpochRedrawAndReciprocity(t *testing.T) {
	inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3, ShadowSigmaDB: 4, Seed: 77}
	ch := NewChannel(inner, 4)
	a, b := geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0}
	base := ch.Loss(0, a, 1, b)
	ch.Bump(0)
	if ch.Epoch(0) != 1 {
		t.Fatalf("epoch after one bump = %d", ch.Epoch(0))
	}
	redrawn := ch.Loss(0, a, 1, b)
	if math.Float64bits(redrawn) == math.Float64bits(base) {
		t.Fatal("bumping an endpoint epoch did not re-draw shadowing")
	}
	if x, y := ch.Loss(0, a, 1, b), ch.Loss(1, b, 0, a); math.Float64bits(x) != math.Float64bits(y) {
		t.Fatalf("re-drawn loss not reciprocal: %v vs %v", x, y)
	}
	// The re-draw is a pure function of the epoch pair: same epochs,
	// same loss.
	if again := ch.Loss(0, a, 1, b); math.Float64bits(again) != math.Float64bits(redrawn) {
		t.Fatalf("same epochs re-drew differently: %v vs %v", again, redrawn)
	}
}

func TestChannelNonShadowedPassthrough(t *testing.T) {
	inner := &radio.Matrix{LossDB: [][]float64{{0, 70}, {70, 0}}}
	ch := NewChannel(inner, 2)
	ch.Bump(0)
	a, b := geo.Point{}, geo.Point{X: 5}
	if got, want := ch.Loss(0, a, 1, b), inner.Loss(0, a, 1, b); got != want {
		t.Fatalf("Matrix inner not passed through: %v vs %v", got, want)
	}
	if !math.IsInf(ch.MaxRange(130), 1) {
		t.Fatal("unbounded inner should yield +Inf MaxRange")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	arena := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 60}
	start := scatterPts(10, 100, 60, 13)
	for _, spec := range []Spec{
		{Kind: Waypoint, SpeedMps: 6, RangeM: 12, DecorrM: 5},
		{Kind: RandomWalk, SpeedMps: 2, DecorrM: 5},
		{Kind: Vehicular, SpeedMps: 15, DecorrM: 5},
	} {
		mkc := func() (*fakeMover, *Manager, *Channel) {
			f := newFakeMover(start)
			ch := NewChannel(&radio.LogDistance{RefLossDB: 50, Exponent: 3, ShadowSigmaDB: 4, Seed: 5}, len(start))
			mg := New(spec, arena, f, sim.NewRNG(21).Stream(StreamLabel), ch)
			mg.Start()
			return f, mg, ch
		}
		fa, mga, cha := mkc()
		run(mga, fa, 20)
		st := exportState(t, mga)

		// Fresh skeleton, restored mid-run state, then both continue.
		fb, mgb, chb := mkc()
		fb.sched.Run(fa.sched.Now()) // advance the clock past the restored epochs
		if err := mgb.RestoreState(st); err != nil {
			t.Fatalf("%s: restore: %v", spec, err)
		}
		if again := exportState(t, mgb); !bytes.Equal(again, st) {
			t.Fatalf("%s: state changed across a round trip:\n  %s\n  %s", spec, st, again)
		}
		for i := range fa.pos {
			if fa.pos[i] != fb.pos[i] {
				t.Fatalf("%s: restored position %d = %+v, want %+v", spec, i, fb.pos[i], fa.pos[i])
			}
		}
		run(mga, fa, 20)
		run(mgb, fb, 20)
		for i := range fa.pos {
			if fa.pos[i] != fb.pos[i] {
				t.Fatalf("%s node %d: resumed trajectory diverged: %+v vs %+v", spec, i, fb.pos[i], fa.pos[i])
			}
			if cha.Epoch(i) != chb.Epoch(i) {
				t.Fatalf("%s node %d: shadow epoch diverged: %d vs %d", spec, i, chb.Epoch(i), cha.Epoch(i))
			}
		}
		if mga.Epochs != mgb.Epochs {
			t.Fatalf("%s: epoch counters diverged: %d vs %d", spec, mga.Epochs, mgb.Epochs)
		}
	}
}

func TestRestoreStateRejectsMismatch(t *testing.T) {
	f := newFakeMover(scatterPts(4, 50, 50, 1))
	mg := New(Spec{Kind: Waypoint, SpeedMps: 1}, geo.Rect{MaxX: 50, MaxY: 50}, f, sim.NewRNG(1).Stream(StreamLabel), nil)
	enc := func(s snapshot) json.RawMessage {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := mg.RestoreState(enc(snapshot{state: state{Nodes: make([]nodeState, 2)}, Pos: make([]geo.Point, 2)})); err == nil {
		t.Fatal("restore with wrong node count succeeded")
	}
	if err := mg.RestoreState(enc(snapshot{state: state{Nodes: make([]nodeState, 4)}, Pos: make([]geo.Point, 3)})); err == nil {
		t.Fatal("restore with wrong position count succeeded")
	}
	ch := NewChannel(&radio.LogDistance{RefLossDB: 50, Exponent: 3, ShadowSigmaDB: 4, Seed: 5}, 4)
	mg2 := New(Spec{Kind: Waypoint, SpeedMps: 1, DecorrM: 5}, geo.Rect{MaxX: 50, MaxY: 50}, newFakeMover(scatterPts(4, 50, 50, 1)), sim.NewRNG(1).Stream(StreamLabel), ch)
	if err := mg2.RestoreState(enc(snapshot{state: state{Nodes: make([]nodeState, 4)}, Pos: make([]geo.Point, 4), Shadow: []uint32{1}})); err == nil {
		t.Fatal("restore with wrong shadow length succeeded")
	}
}

func TestEventArgCodec(t *testing.T) {
	f := newFakeMover(scatterPts(2, 10, 10, 1))
	mg := New(Spec{Kind: Waypoint, SpeedMps: 1}, geo.Rect{MaxX: 10, MaxY: 10}, f, sim.NewRNG(1).Stream(StreamLabel), nil)
	enc, err := mg.EncodeEventArg(nil)
	if err != nil {
		t.Fatal(err)
	}
	if arg, err := mg.DecodeEventArg(enc); err != nil || arg != nil {
		t.Fatalf("decode(nil) = %v, %v", arg, err)
	}
	if arg, err := mg.DecodeEventArg([]byte("null")); err != nil || arg != nil {
		t.Fatalf("decode(null) = %v, %v", arg, err)
	}
	if _, err := mg.EncodeEventArg(42); err == nil {
		t.Fatal("encode of a non-nil arg succeeded")
	}
	if _, err := mg.DecodeEventArg([]byte(`{"x":1}`)); err == nil {
		t.Fatal("decode of a non-null payload succeeded")
	}
}

// TestLossReciprocityBits pins what the medium's batch patch leans on:
// every range-bounded model returns the same IEEE-754 bits in both
// directions of a pair, so one evaluation can fill both endpoints'
// delivery lists. Covered: LogDistance (shadowed and not), FreeSpace,
// and a Channel over each at random shadow-epoch pairs.
func TestLossReciprocityBits(t *testing.T) {
	const n = 40
	models := map[string]radio.Model{
		"LogDistance":          radio.DefaultIndoor5GHz(11),
		"LogDistance/noshadow": &radio.LogDistance{RefLossDB: 47, Exponent: 2.7},
		"FreeSpace":            &radio.FreeSpace{RefLossDB: 46.8, Exponent: 2},
	}
	for _, name := range []string{"LogDistance", "LogDistance/noshadow", "FreeSpace"} {
		models["Channel/"+name] = NewChannel(models[name], n)
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			if _, ok := model.(radio.RangeBounder); !ok {
				t.Fatal("model is not a RangeBounder: the grid path would not use it")
			}
			rng := sim.NewRNG(0x5ec1)
			for trial := 0; trial < 20000; trial++ {
				if ch, ok := model.(*Channel); ok && trial%50 == 0 {
					ch.Bump(rng.Intn(n)) // epochs drift apart as the trials go
				}
				a, b := rng.Intn(n), rng.Intn(n)
				// Mixed scales: sub-metre (inside the MinDistance clamp)
				// to kilometres, so rounding in Dist differs per pair.
				scale := math.Pow(10, 4*rng.Float64()-1)
				pa := geo.Point{X: scale * (rng.Float64() - 0.5), Y: scale * (rng.Float64() - 0.5)}
				pb := geo.Point{X: scale * (rng.Float64() - 0.5), Y: scale * (rng.Float64() - 0.5)}
				ab, ba := model.Loss(a, pa, b, pb), model.Loss(b, pb, a, pa)
				if math.Float64bits(ab) != math.Float64bits(ba) {
					t.Fatalf("Loss(%d,%v,%d,%v) = %x but reversed = %x", a, pa, b, pb,
						math.Float64bits(ab), math.Float64bits(ba))
				}
			}
		})
	}
}

// TestScreenReciprocityBits is the same pin for the shadowing screen:
// the grid patch drops a refused candidate from both endpoints' rows on
// one asking, so Inaudible(a,b) must equal Inaudible(b,a) — same ring
// (Dist is symmetric to the bit), same (lo,hi) stream, epochs mixed in
// id order — at any epoch pair, and must say "refused" only of a pair
// whose Loss is over the budget. FreeSpace offers no screen, bare or
// wrapped.
func TestScreenReciprocityBits(t *testing.T) {
	const n, budget = 40, 112.0
	inner := radio.DefaultUrban5GHz(11)
	ch := NewChannel(inner, n)
	if NewChannel(&radio.FreeSpace{RefLossDB: 46.8, Exponent: 2}, n).Screen(budget) != nil {
		t.Fatal("a channel over FreeSpace offers a screen")
	}
	tab := ch.Screen(budget)
	if tab == nil || tab != inner.Screen(budget) {
		t.Fatal("the channel does not forward the inner model's screen")
	}
	reach := ch.MaxRange(budget)
	rng := sim.NewRNG(0x5c7ee)
	refused := 0
	for trial := 0; trial < 40000; trial++ {
		if trial%50 == 0 {
			ch.Bump(rng.Intn(n))
		}
		a, b := rng.Intn(n), rng.Intn(n)
		pa := geo.Point{X: reach * rng.Float64(), Y: reach * rng.Float64()}
		pb := geo.Point{X: reach * rng.Float64(), Y: reach * rng.Float64()}
		for _, m := range []interface {
			radio.Model
			radio.Screener
		}{inner, ch} {
			ab, ba := m.Inaudible(tab, a, pa, b, pb), m.Inaudible(tab, b, pb, a, pa)
			if ab != ba {
				t.Fatalf("%T epochs %d,%d: Inaudible(%d,%v,%d,%v) = %v but reversed = %v",
					m, ch.Epoch(a), ch.Epoch(b), a, pa, b, pb, ab, ba)
			}
			if ab {
				refused++
				if loss := m.Loss(a, pa, b, pb); !(loss > budget) {
					t.Fatalf("%T epochs %d,%d: %d→%d refused at loss %v, budget %v",
						m, ch.Epoch(a), ch.Epoch(b), a, b, loss, budget)
				}
			}
		}
	}
	if refused < 40000 {
		t.Fatalf("only %d of 80000 askings refused", refused)
	}
}

// exportState is the manager's checkpoint bytes.
func exportState(t *testing.T, mg *Manager) json.RawMessage {
	t.Helper()
	b, err := mg.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
