package medium

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// scatter places n nodes uniformly in the arena from a dedicated stream.
func scatter(n int, arena geo.Rect, rng *sim.RNG) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: arena.MinX + rng.Float64()*arena.Width(),
			Y: arena.MinY + rng.Float64()*arena.Height(),
		}
	}
	return pts
}

// requireListsEqual asserts every delivery list matches the oracle
// bit-exactly (requireRowEqual).
func requireListsEqual(t *testing.T, label string, got, want [][]Delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists vs oracle %d", label, len(got), len(want))
	}
	for i := range want {
		requireRowEqual(t, label, i, got[i], want[i])
	}
}

// requireRowEqual asserts node i's delivery list matches the oracle's
// bit-exactly: same membership, same order, same IEEE-754 gain bits,
// same nil-when-empty convention.
func requireRowEqual(t *testing.T, label string, i int, got, want []Delivery) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: node %d nil-ness %v vs oracle %v (len %d vs %d)",
			label, i, got == nil, want == nil, len(got), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: node %d has %d deliveries, oracle %d", label, i, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Dst != w.Dst || math.Float64bits(g.GainMW) != math.Float64bits(w.GainMW) {
			t.Fatalf("%s: node %d entry %d = {%d, %x}, oracle {%d, %x}",
				label, i, k, g.Dst, math.Float64bits(g.GainMW), w.Dst, math.Float64bits(w.GainMW))
		}
	}
}

// arenas are the two scales the patch oracles run at. In the room every
// pair is within budget before shadowing and the screen has nothing to
// refuse; across the field most grid candidates are out of earshot, so
// the screened patch path (refused candidates, refused read-backs) is
// what the oracles are held to.
var arenas = map[string]geo.Rect{
	"room":  {MinX: 0, MinY: 0, MaxX: 120, MaxY: 80},
	"field": {MinX: 0, MinY: 0, MaxX: 1800, MaxY: 1200},
}

// TestIncrementalMatchesRebuild drives each mobility model over a
// log-distance testbed (with shadowing re-draws) and proves, after
// every movement epoch, that the delivery lists read through the
// refreshing accessor are bit-identical to a from-scratch sparse build
// AND to the dense O(n²) reference over the same final positions and
// shadowing epochs.
func TestIncrementalMatchesRebuild(t *testing.T) {
	specs := []mobility.Spec{
		{Kind: mobility.Waypoint, SpeedMps: 12, DecorrM: 15},
		{Kind: mobility.RandomWalk, SpeedMps: 8, DecorrM: 15},
		{Kind: mobility.Vehicular, SpeedMps: 25}, // lane wrap = long jumps
	}
	for _, spec := range specs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			for where, arena := range arenas {
				t.Run(where, func(t *testing.T) {
					params := phy.DefaultParams()
					inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0xd15c0}
					rng := sim.NewRNG(42)
					pts := scatter(60, arena, rng.Stream(7))
					ch := mobility.NewChannel(inner, len(pts))
					sched := sim.NewScheduler()
					rows, grid := BuildDeliveries(params, ch, pts, 1)
					m := NewFromRows(sched, params, ch, pts, rng.Stream(1), rows, grid)
					mg := mobility.New(spec, arena, m, rng.Stream(mobility.StreamLabel), ch)
					mg.Start()
					for epoch := 0; epoch < 30; epoch++ {
						if !sched.Step() {
							t.Fatal("scheduler drained early")
						}
						sparse, gridBacked := BuildDeliveries(params, ch, m.positions, 1)
						if !gridBacked {
							t.Fatal("expected the grid construction path")
						}
						requireListsEqual(t, "sparse oracle", m.Rows(), sparse)
						requireListsEqual(t, "dense oracle", m.Rows(), denseDeliveries(params, ch, m.positions))
					}
					if mg.Epochs != 30 {
						t.Fatalf("manager applied %d epochs, want 30", mg.Epochs)
					}
					refused := 0
					for a := range pts {
						for b := range pts {
							if a != b && m.screen.refuses(a, m.positions[a], b, m.positions[b]) {
								refused++
							}
						}
					}
					if (where == "field") != (refused > len(pts)*len(pts)/2) {
						t.Fatalf("the screen refuses %d of %d ordered pairs in the %s", refused, len(pts)*(len(pts)-1), where)
					}
				})
			}
		})
	}
}

// unbounded hides a model's range bound, which sends the medium down
// the dense construction and patch paths.
type unbounded struct{ radio.Model }

// TestPartialBatchMatchesRebuild moves subsets of the nodes in one
// MoveNodes call — TestIncrementalMatchesRebuild only ever moves all of
// them — and proves after every batch that the lists, read through the
// refreshing accessor, equal the sparse and dense oracles over the
// final positions and shadow epochs, and equal a twin medium that took
// the same moves one MoveNode at a time.
// Every case runs on the grid path and on the dense fallback.
func TestPartialBatchMatchesRebuild(t *testing.T) {
	const n = 60
	// A batch is built against the current positions; bump lists nodes
	// whose shadow epoch advances before the batch is applied.
	type batch struct {
		ids  []int
		pts  []geo.Point
		bump []int
	}
	jitter := func(p geo.Point, rng *sim.RNG) geo.Point {
		return geo.Point{X: p.X + 20*(rng.Float64()-0.5), Y: p.Y + 20*(rng.Float64()-0.5)}
	}
	cases := []struct {
		name   string
		rounds int
		next   func(pos []geo.Point, rng *sim.RNG) batch
	}{
		{"empty batch", 1, func([]geo.Point, *sim.RNG) batch { return batch{} }},
		{"one node", 5, func(pos []geo.Point, rng *sim.RNG) batch {
			i := rng.Intn(n)
			return batch{ids: []int{i}, pts: []geo.Point{jitter(pos[i], rng)}}
		}},
		{"moved pair swaps places", 5, func(pos []geo.Point, rng *sim.RNG) batch {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			return batch{ids: []int{a, b}, pts: []geo.Point{pos[b], pos[a]}}
		}},
		{"every third node, descending ids", 5, func(pos []geo.Point, rng *sim.RNG) batch {
			var bt batch
			for i := n - 1; i >= 0; i -= 3 {
				bt.ids = append(bt.ids, i)
				bt.pts = append(bt.pts, jitter(pos[i], rng))
			}
			return bt
		}},
		{"zero-length moves under bumped shadowing", 5, func(pos []geo.Point, rng *sim.RNG) batch {
			var bt batch
			for i := rng.Intn(4); i < n; i += 4 {
				bt.ids = append(bt.ids, i)
				bt.pts = append(bt.pts, pos[i])
				bt.bump = append(bt.bump, i)
			}
			return bt
		}},
		{"out of the arena", 4, func(pos []geo.Point, rng *sim.RNG) batch {
			a, b := rng.Intn(n), rng.Intn(n)
			return batch{
				ids: []int{a, b, (a + 7) % n},
				pts: []geo.Point{{X: -3000, Y: 5000}, {X: 1e5 * rng.Float64(), Y: -40}, jitter(pos[(a+7)%n], rng)},
			}
		}},
		{"node listed twice ends at its last point", 4, func(pos []geo.Point, rng *sim.RNG) batch {
			a := rng.Intn(n)
			b := (a + 1) % n
			return batch{
				ids: []int{a, b, a},
				pts: []geo.Point{{X: -3000, Y: -3000}, jitter(pos[b], rng), jitter(pos[a], rng)},
			}
		}},
		{"random half with random bumps", 20, func(pos []geo.Point, rng *sim.RNG) batch {
			var bt batch
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.5 {
					continue
				}
				p := jitter(pos[i], rng)
				switch rng.Intn(8) {
				case 0:
					p = pos[i]
				case 1:
					p = geo.Point{X: p.X - 3000, Y: p.Y + 3000}
				}
				bt.ids = append(bt.ids, i)
				bt.pts = append(bt.pts, p)
				if rng.Float64() < 0.3 {
					bt.bump = append(bt.bump, i)
				}
			}
			return bt
		}},
	}
	for _, dense := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if dense {
				name += "/dense path"
			}
			t.Run(name, func(t *testing.T) {
				for where, arena := range arenas {
					t.Run(where, func(t *testing.T) {
						params := phy.DefaultParams()
						inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0xba7c4}
						rng := sim.NewRNG(77)
						pts := scatter(n, arena, rng.Stream(7))
						ch := mobility.NewChannel(inner, n)
						var model radio.Model = ch
						if dense {
							model = unbounded{ch}
						}
						rows, grid := BuildDeliveries(params, model, pts, 1)
						m := NewFromRows(sim.NewScheduler(), params, model, pts, rng.Stream(1), rows, grid)
						twin := NewFromRows(sim.NewScheduler(), params, model, pts, rng.Stream(1), rows, grid)
						if m.GridBacked() == dense {
							t.Fatalf("grid-backed = %v on the %s", m.GridBacked(), name)
						}
						draw := rng.Stream(9)
						for round := 0; round < tc.rounds; round++ {
							bt := tc.next(m.positions, draw)
							for _, i := range bt.bump {
								ch.Bump(i)
							}
							m.MoveNodes(bt.ids, bt.pts)
							for k, i := range bt.ids {
								twin.MoveNode(i, bt.pts[k])
							}
							for k := len(bt.ids) - 1; k >= 0; k-- {
								// The last listing of an id is where it must be.
								if i := bt.ids[k]; !slices.Contains(bt.ids[k+1:], i) && m.positions[i] != bt.pts[k] {
									t.Fatalf("round %d: node %d at %v, want %v", round, i, m.positions[i], bt.pts[k])
								}
							}
							sparse, _ := BuildDeliveries(params, ch, m.positions, 1)
							requireListsEqual(t, "sparse oracle", m.Rows(), sparse)
							requireListsEqual(t, "dense oracle", m.Rows(), denseDeliveries(params, ch, m.positions))
							requireListsEqual(t, "one MoveNode at a time", m.Rows(), twin.Rows())
						}
					})
				}
			})
		}
	}
}

// TestIncrementalDensePath covers an unbounded model: a loss matrix has
// no range bound, so a row read after MoveNode considers every node —
// here movement cannot change gains (the matrix ignores positions), so
// the rebuilt rows must equal the dense oracle.
func TestIncrementalDensePath(t *testing.T) {
	params := phy.DefaultParams()
	n := 6
	mx := &radio.Matrix{LossDB: make([][]float64, n)}
	rng := sim.NewRNG(9)
	for a := 0; a < n; a++ {
		mx.LossDB[a] = make([]float64, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// Mix audible and inaudible links around the delivery floor.
			l := 55 + 60*rng.Float64()
			mx.LossDB[a][b], mx.LossDB[b][a] = l, l
		}
	}
	pts := make([]geo.Point, n)
	sched := sim.NewScheduler()
	m := New(sched, params, mx, pts, sim.NewRNG(1))
	want := denseDeliveries(params, mx, pts)
	for i := 0; i < n; i++ {
		m.MoveNode(i, geo.Point{X: float64(i), Y: 2})
	}
	if m.GridBacked() || !math.IsInf(m.mv.maxRange, 1) {
		t.Fatal("a matrix model has no range bound: its grid must span every node")
	}
	requireListsEqual(t, "dense rows", m.Rows(), want)
}

// TestMoveNodePreservesInFlightFanout pins the snapshot invariant: a
// transmission that started before a move must deliver SignalEnd to the
// same receiver set SignalStart reached, even if the move pushed the
// receiver off the live delivery list mid-frame.
func TestMoveNodePreservesInFlightFanout(t *testing.T) {
	params := phy.DefaultParams()
	model := &radio.LogDistance{RefLossDB: 50, Exponent: 3.5}
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	sched := sim.NewScheduler()
	m := New(sched, params, model, pts, sim.NewRNG(3))
	snapshot := m.row(0)
	if len(snapshot) != 1 {
		t.Fatalf("want an audible pair, got %d deliveries", len(snapshot))
	}
	tx := m.acquireTx()
	*tx = phy.Transmission{TxID: 1, From: 0, Deliveries: m.row(0)}
	// Move the receiver far out of range: the live list empties...
	m.MoveNode(1, geo.Point{X: 1e6, Y: 0})
	if k := m.NeighborCount(0); k != 0 {
		t.Fatalf("live list should be empty after the move, has %d", k)
	}
	// ...but the snapshot still names the original receiver set.
	if len(tx.Deliveries) != 1 || tx.Deliveries[0].Dst != snapshot[0].Dst ||
		math.Float64bits(tx.Deliveries[0].GainMW) != math.Float64bits(snapshot[0].GainMW) {
		t.Fatal("transmit-time snapshot was disturbed by MoveNode")
	}
}

// TestEmptyBatchIsNoOp pins that a batch with no node in it — the
// mobility manager hands one over when every node is paused at a
// waypoint — changes nothing: no delivery row goes stale, and every
// sender keeps its heard row and the arena it lives in.
func TestEmptyBatchIsNoOp(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 30}}
	m := New(sim.NewScheduler(), phy.DefaultParams(), &radio.LogDistance{RefLossDB: 50, Exponent: 3.0}, pts, sim.NewRNG(1))
	for i := range pts {
		m.Radio(i).SetHandler(&recorder{})
	}
	m.MoveNode(0, pts[0]) // builds the motion state and stales every row
	heard := make([][]int32, len(pts))
	for i := range pts {
		heard[i] = m.heardRow(i)
	}
	arena, ver, rowVer := m.arena, m.ver, m.mv.ver
	m.MoveNodes(nil, nil)
	if unsafe.SliceData(m.arena) != unsafe.SliceData(arena) || len(m.arena) != len(arena) || cap(m.arena) != cap(arena) {
		t.Fatal("an empty batch retired the heard-row arena")
	}
	if m.ver != ver || m.mv.ver != rowVer {
		t.Fatalf("an empty batch bumped the heard version %d→%d or the row version %d→%d", ver, m.ver, rowVer, m.mv.ver)
	}
	for i := range pts {
		if got := m.heardRow(i); unsafe.SliceData(got) != unsafe.SliceData(heard[i]) || len(got) != len(heard[i]) {
			t.Fatalf("node %d re-derived its heard row after an empty batch", i)
		}
	}
}

// TestAllFrameAfterMoveFansOutOverMovedGeometry pins the All branch of
// Transmit to the refreshing accessor: a frame that starts in an attach
// instant right after MoveNodes reaches the receivers of the moved
// geometry, not those of the row as it was built.
func TestAllFrameAfterMoveFansOutOverMovedGeometry(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 10}, {X: 1e6}}
	sched := sim.NewScheduler()
	m := New(sched, phy.DefaultParams(), &radio.LogDistance{RefLossDB: 50, Exponent: 3.0}, pts, sim.NewRNG(1))
	if m.NeighborCount(0) != 1 {
		t.Fatalf("node 0 has %d receivers as built, want node 1 alone", m.NeighborCount(0))
	}
	for i := range pts {
		m.Radio(i).SetHandler(&recorder{})
	}
	// Nodes 1 and 2 trade places, in the instant the stations attached.
	m.MoveNodes([]int{1, 2}, []geo.Point{pts[2], pts[1]})
	m.Radio(0).Transmit(dataFrame(0, 2), phy.RateByID(phy.Rate6Mbps))
	if got := [2]int{m.Radio(1).ActiveSignals(), m.Radio(2).ActiveSignals()}; got != [2]int{0, 1} {
		t.Fatalf("the All frame reached nodes 1 and 2 with %v signals, want [0 1]", got)
	}
	sched.RunAll()
	for i := range pts {
		if r := m.Radio(i); r.ActiveSignals() != 0 || r.TotalMW != 0 {
			t.Fatalf("radio %d after the frame: %d signals, totalMW %v — an Arrive without its Depart", i, r.ActiveSignals(), r.TotalMW)
		}
	}
}

// TestCarvedRowsAreCapped pins the attended-part arena: the parts two
// senders' first frames build sit side by side in one chunk, each
// capped at its end, so an append to one moves it elsewhere instead of
// writing over the next.
func TestCarvedRowsAreCapped(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 30}}
	m := New(sim.NewScheduler(), phy.DefaultParams(), &radio.LogDistance{RefLossDB: 50, Exponent: 3.0}, pts, sim.NewRNG(1))
	for i := range pts {
		m.Radio(i).SetHandler(&recorder{})
	}
	if m.heardRow(0) != nil || m.heardRow(1) != nil {
		t.Fatal("a stale row's first frame must carry every entry of its attended part (Heard nil)")
	}
	first, next := m.deliveries[0], m.deliveries[1]
	if len(first) == 0 || len(next) == 0 {
		t.Fatalf("want audible rows, got %d and %d entries", len(first), len(next))
	}
	if unsafe.Pointer(unsafe.SliceData(next)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(first)), len(first)*int(unsafe.Sizeof(Delivery{}))) {
		t.Fatal("the two attended parts were not carved side by side from one chunk")
	}
	if cap(first) != len(first) {
		t.Fatalf("a carved row has capacity %d past its %d entries", cap(first), len(first))
	}
	want := slices.Clone(next)
	grown := append(first, Delivery{Dst: 3, GainMW: 1})
	requireRowEqual(t, "the next carved row after an append", 1, m.deliveries[1], want)
	if unsafe.SliceData(grown) == unsafe.SliceData(first) {
		t.Fatal("an append to a carved row grew it in place")
	}
}
