package medium

import (
	"fmt"

	"repro/internal/geo"
)

// Lazy delivery rows. New builds no row: it builds the motion state
// with the row version one past every row's, so every row starts
// stale. MoveNodes relocates a set of nodes — one movement epoch's
// worth — and evaluates no pair: it updates the positions and the grid
// buckets and bumps the row version, which marks every row stale at
// once. A stale row is built on its next full read (row) by gridRow
// over the whole row, then sortedCopy, over the positions and model
// state of that read. Each pair goes through the screen, Loss and floor
// that BuildDeliveries puts it to once for both rows, and a
// range-bounded model is reciprocal to the bit, so the row is
// bit-identical to a from-scratch build over them. A frame is not a
// full read: a sender's first frame over a stale row builds, in
// heardRow, only the attended part of it, by the same gridRow narrowed
// to the receivers a station listens on, carved from a chunked arena
// (carve). deliveries[a] is a's full row only while rowVer[a] == ver;
// until then it is stale or that attended part. A run reads the rows of
// the links it asks about and the attended candidates of the nodes
// that transmit — a small share of the network from New on, and per
// epoch under motion — and pays only for those.
//
// Every full reader goes through row: Transmit's All branch,
// NeighborCount, ForEachNeighbor and lookupGain; rebuildRow retires the
// sender's heard row, which may index the attended part it replaces. A
// model whose Loss depends on per-node state that changes without a
// position change (the mobility channel's shadowing epochs) must change
// it only together with a batch: a row read later reads the live model.
// TestIncrementalMatchesRebuild, TestPartialBatchMatchesRebuild and
// FuzzDeliveryPatch pin the rows read against the sparse and the dense
// oracle, TestFanoutMatchesRebuildUnderMotion every frame's receivers;
// TestLazyRows pins that only the rows read and the attended candidates
// of a frame are built.
//
// Rows are copy-on-write: a rebuilt row is a fresh slice, never a
// mutation of the old backing array, because in-flight transmissions
// hold transmit-time snapshots of the rows they fanned out over (see
// Transmit / finishTransmission), and because other media may share the
// rows (NewFromRows).

// mover is the lazy-row state.
type mover struct {
	// grid tracks current positions; maxRange is +Inf when the model
	// does not bound its range, so a query visits every node.
	grid     *geo.Grid
	maxRange float64
	ver      uint64     // bumped by New and by every non-empty batch
	rowVer   []uint64   // deliveries[i] is i's full current row while rowVer[i] == ver
	row      []Delivery // scratch kept row, reused across rebuilds
	// back is the arena attended parts are carved from. A carved row is
	// capped at its end and never written after — frames on the air
	// hold it — so a full chunk is left to them and a new one begun.
	back []Delivery
}

func (m *Medium) ensureMover() *mover {
	if m.mv != nil {
		return m.mv
	}
	r, _ := reach(m.params, m.model)
	// The grid gets its own copy of the positions: Move mutates the
	// stored slice, and m.positions stays authoritative.
	mv := &mover{
		grid:     geo.NewGrid(append([]geo.Point(nil), m.positions...), r),
		maxRange: r,
		rowVer:   make([]uint64, len(m.positions)),
	}
	m.mv = mv
	return mv
}

// row returns node i's full delivery row, rebuilding it first when a
// batch has moved nodes since it was built (deliveries[i] may then hold
// the attended part a frame built, see heardRow).
func (m *Medium) row(i int) []Delivery {
	if mv := m.mv; mv != nil && mv.rowVer[i] != mv.ver {
		m.rebuildRow(mv, i)
	}
	return m.deliveries[i]
}

// rebuildRow builds node a's full row over the current positions
// through the grid, the row BuildDeliveries would build. It retires a's
// heard row: that row may be the attended part heardRow left in
// deliveries[a], and a later frame of a carrying it as nil (every
// entry) would reach every receiver on the full row.
func (m *Medium) rebuildRow(mv *mover, a int) {
	m.deliveries[a] = m.buildRow(mv, a, nil)
	mv.rowVer[a] = mv.ver
	m.heardVer[a] = 0
}

// buildRow builds node a's row over the current positions, narrowed to
// the receivers keep marks when keep is non-nil, in the stored form: a
// full row as its own exact slice, an attended part carved from back.
func (m *Medium) buildRow(mv *mover, a int, keep []bool) []Delivery {
	mv.row = gridRow(mv.row[:0], a, 0, m.positions, mv.grid, mv.maxRange, m.floor, m.screen, m.model, keep)
	if keep == nil {
		return sortedCopy(mv.row)
	}
	return mv.carve(mv.row)
}

// carve is sortedCopy into the arena: the sorted row is appended to
// back and returned capped at its end, so nothing appended to it later
// can reach the next row. Attended parts are many and short-lived — the
// next full read replaces each — so one allocation per chunk, not per
// row, keeps a run's first frames from costing an object each.
func (mv *mover) carve(row []Delivery) []Delivery {
	if len(row) == 0 {
		return nil
	}
	sortByDst(row)
	if cap(mv.back)-len(mv.back) < len(row) {
		mv.back = make([]Delivery, 0, max(4*len(row), 256))
	}
	lo := len(mv.back)
	mv.back = append(mv.back, row...)
	return mv.back[lo:len(mv.back):len(mv.back)]
}

// MoveNode relocates one node: the one-element case of MoveNodes.
func (m *Medium) MoveNode(i int, p geo.Point) {
	m.MoveNodes([]int{i}, []geo.Point{p})
}

// MoveNodes relocates node ids[k] to pts[k] for every k. An id listed
// twice ends at its last point. It evaluates no pair: it marks every
// delivery row stale, and a row is rebuilt over the positions and model
// state of its next read (see row), equal to what a from-scratch build
// would produce then. Zero-length moves are valid and still mark the
// rows stale, which is how a model's per-node state that changed
// without a position change (the mobility channel's shadowing epochs)
// reaches them. An empty batch changes nothing.
func (m *Medium) MoveNodes(ids []int, pts []geo.Point) {
	if len(ids) != len(pts) {
		panic(fmt.Sprintf("medium: MoveNodes got %d ids and %d points", len(ids), len(pts)))
	}
	if len(ids) == 0 {
		return
	}
	mv := m.ensureMover()
	for k, i := range ids {
		m.positions[i] = pts[k]
		mv.grid.Move(i, pts[k])
	}
	mv.ver++
	m.staleHeard()
}

// RebuildDeliveries replaces the delivery lists with an eager
// from-scratch build (BuildDeliveries) over the current positions. It
// exists for the equivalence tier and benchmarks — the oracle the lazy
// rows are measured against. Every row is then current, so the motion
// state goes too; the next batch builds it afresh over the current
// positions.
func (m *Medium) RebuildDeliveries() {
	m.deliveries, m.gridBacked = BuildDeliveries(m.params, m.model, m.positions, 1)
	m.mv = nil
	m.staleHeard()
}
