package medium

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/radio"
)

// Incremental delivery-list maintenance for mobile nodes. MoveNodes
// relocates a set of nodes — one movement epoch's worth — and patches
// only the lists the moves can change, meeting each affected unordered
// pair once: one distance test, one screen test and at most one model
// evaluation (none for a pair the model's shadowing screen refuses),
// while staying bit-identical to BuildDeliveries over the final
// positions: every kept entry is the same pure float computation
// (floor.gain of model.Loss), membership uses the same predicate, and
// lists stay in ascending receiver order with the same nil-when-empty
// convention.
//
// Three invariants carry the grid path. Reciprocity: a range-bounded
// model's Loss(a,pa,b,pb) and Loss(b,pb,a,pa) have equal bits
// (geo.Point.Dist squares the coordinate differences, the shadowing
// hash is keyed on (lo,hi), mobility.Channel mixes epochs in id order;
// pinned by TestLossReciprocityBits in internal/mobility), so the gain
// the first endpoint of a moved pair computes is the one the second
// endpoint's row would hold, and is handed to it rather than computed
// again. The guard band: floor.gain skips the Pow only where the
// literal comparison could not have kept the link
// (TestFloorMatchesLiteral). The screen: it refuses a pair only when
// floor.gain would have, and answers alike in both directions
// (TestScreenReciprocityBits, FuzzScreenNeverRefusesAudible), so a pair
// refused from one end belongs in neither endpoint's row.
// TestIncrementalMatchesRebuild, TestPartialBatchMatchesRebuild and
// FuzzDeliveryPatch pin the equivalence against both the sparse and the
// dense oracle; TestMoveNodesMeetsEachPairOnce pins the once.
//
// Patches are copy-on-write: a patched list is a fresh slice, never a
// mutation of the old backing array, because in-flight transmissions
// hold transmit-time snapshots of the lists they fanned out over (see
// Transmit / finishTransmission), and because other media may share the
// rows (NewFromRows). Every batch retires the heard rows, which hold
// positions in the lists it replaced.

// Per-node progress of the batch in flight; every entry is unmoved
// between MoveNodes calls.
const (
	unmoved  uint8 = iota
	pending        // in the batch, row not rebuilt yet
	rowFinal       // in the batch, row rebuilt over the final positions
)

// handoff is one audible gain a batch endpoint computed for a pair
// whose other endpoint is still pending: an entry for that endpoint's
// row, waiting in the mover's chain for it.
type handoff struct {
	next int32   // next entry in the same chain, or none
	dst  int32   // the endpoint that computed the gain
	gain float64 // floor.gain of the pair's loss, in mW
}

// none ends a handoff chain.
const none int32 = -1

// handoffChunk is the handoff arena's unit of growth, in entries. The
// arena grows by whole chunks and never copies, so what it allocates is
// its peak occupancy rounded up to a chunk — at the mobile_churn
// layout, processed in cell order, a few thousand entries.
const handoffChunk = 512

// mover is the lazily-built incremental-update state.
type mover struct {
	// grid tracks current positions when the model bounds its range;
	// nil means the model is unbounded and patches scan all nodes.
	grid     *geo.Grid
	maxRange float64
	state    []uint8    // batch progress per node
	row      []Delivery // scratch kept row, reused across moves

	// Handoffs waiting for their pending endpoint: head[j] starts node
	// j's chain. Entries live in fixed-size chunks, addressed by index,
	// and a drained entry goes on the free list; every chain is drained
	// by the end of the batch that filled it, so live is then zero.
	head   []int32
	chunks []*[handoffChunk]handoff
	used   int32 // entries ever taken from the chunks
	free   int32 // first recycled entry, or none
	live   int   // entries pushed and not yet drained
}

func (m *Medium) ensureMover() *mover {
	if m.mv != nil {
		return m.mv
	}
	n := len(m.positions)
	mv := &mover{maxRange: math.Inf(1), state: make([]uint8, n), free: none}
	if rb, ok := m.model.(radio.RangeBounder); ok {
		mv.maxRange = rb.MaxRange(m.params.TxPowerDBm - m.params.DeliveryFloorDBm)
	}
	// Same usability test as BuildDeliveries: a non-positive or
	// non-finite bound means every pair must be considered.
	if mv.maxRange > 0 && !math.IsInf(mv.maxRange, 1) && !math.IsNaN(mv.maxRange) {
		// The grid gets its own copy of the positions: Move mutates the
		// stored slice, and m.positions stays authoritative.
		mv.grid = geo.NewGrid(append([]geo.Point(nil), m.positions...), mv.maxRange)
		mv.head = make([]int32, n)
		for j := range mv.head {
			mv.head[j] = none
		}
	} else {
		mv.maxRange = math.Inf(1)
		mv.grid = nil
	}
	m.mv = mv
	return mv
}

// entry returns handoff k.
func (mv *mover) entry(k int32) *handoff {
	return &mv.chunks[k/handoffChunk][k%handoffChunk]
}

// push hands node j the gain of its pair with src.
func (mv *mover) push(j, src int, g float64) {
	k := mv.free
	if k != none {
		mv.free = mv.entry(k).next
	} else {
		if int(mv.used) == len(mv.chunks)*handoffChunk {
			mv.chunks = append(mv.chunks, new([handoffChunk]handoff))
		}
		k = mv.used
		mv.used++
	}
	*mv.entry(k) = handoff{next: mv.head[j], dst: int32(src), gain: g}
	mv.head[j] = k
	mv.live++
}

// drain appends node j's handoffs to row and recycles them.
func (mv *mover) drain(j int, row []Delivery) []Delivery {
	for k := mv.head[j]; k != none; {
		e := mv.entry(k)
		row = append(row, Delivery{Dst: int(e.dst), GainMW: e.gain})
		next := e.next
		e.next = mv.free
		mv.free = k
		mv.live--
		k = next
	}
	mv.head[j] = none
	return row
}

// MoveNode relocates one node: the one-element case of MoveNodes.
func (m *Medium) MoveNode(i int, p geo.Point) {
	m.MoveNodes([]int{i}, []geo.Point{p})
}

// MoveNodes relocates node ids[k] to pts[k] for every k and patches the
// delivery lists so they equal what a from-scratch build over the
// updated positions would produce. Zero-length moves are valid (the
// recompute is idempotent), and an id listed twice ends at its last
// point. Models whose Loss depends on per-node state that changed
// without a position change (the mobility channel's shadowing epochs)
// are refreshed by the same call: every list entry involving a listed
// node is recomputed from the live model, so such state must be final
// for the whole batch before the call.
//
// All positions and grid buckets are updated first, so every gain is
// computed over final geometry; then each listed node's row is rebuilt
// and its unmoved neighbours are patched from it. A batch of more than
// one node is rebuilt in grid-cell order, so a handoff waits only for
// the next band of cells and the handoff arena stays small; the order
// changes no list.
func (m *Medium) MoveNodes(ids []int, pts []geo.Point) {
	if len(ids) != len(pts) {
		panic(fmt.Sprintf("medium: MoveNodes got %d ids and %d points", len(ids), len(pts)))
	}
	mv := m.ensureMover()
	for k, i := range ids {
		m.positions[i] = pts[k]
		if mv.grid != nil {
			mv.grid.Move(i, pts[k])
		}
		mv.state[i] = pending
	}
	switch {
	case mv.grid == nil:
		for _, i := range ids {
			if mv.state[i] == pending { // else listed twice
				m.moveDensePatch(i)
				mv.state[i] = rowFinal
			}
		}
	case len(ids) == 1:
		m.moveGridPatch(mv, ids[0])
	default:
		mv.grid.Each(func(i int) {
			if mv.state[i] == pending {
				m.moveGridPatch(mv, i)
			}
		})
	}
	for _, i := range ids {
		mv.state[i] = unmoved
	}
	m.staleHeard()
}

// audible evaluates the model from a to b at their current positions:
// the received power in mW and whether it clears the delivery floor.
func (m *Medium) audible(a, b int) (float64, bool) {
	return m.floor.gain(m.model.Loss(a, m.positions[a], b, m.positions[b]))
}

// moveGridPatch rebuilds node i's row and patches the unmoved nodes
// whose entry for i could have changed: the receivers of i's old row
// (reciprocity: exactly the nodes that heard i before) and of its new
// one. The row starts from the handoffs left by batch nodes rebuilt
// earlier; those nodes are skipped before the distance test, their pair
// with i having been met from their end. Every other grid candidate
// within range is put to the screen, and a survivor is evaluated — and,
// when audible and itself still pending, handed its entry for i. Moved
// neighbours are not patched: their rows are rebuilt whole.
func (m *Medium) moveGridPatch(mv *mover, i int) {
	old := m.deliveries[i]
	row := mv.drain(i, mv.row[:0])
	pi := m.positions[i]
	// Final before the walk, so the skip below covers i itself too.
	mv.state[i] = rowFinal
	mv.grid.Near(i, mv.maxRange, func(cell []int) {
		for _, b := range cell {
			if mv.state[b] == rowFinal {
				continue // met from b's end: a handoff if audible
			}
			pb := m.positions[b]
			if !(pi.Dist(pb) <= mv.maxRange) || m.screen.refuses(i, pi, b, pb) {
				continue
			}
			g, ok := m.floor.gain(m.model.Loss(i, pi, b, pb))
			if !ok {
				continue
			}
			row = append(row, Delivery{Dst: b, GainMW: g})
			if mv.state[b] == pending {
				mv.push(b, i, g)
			}
		}
	})
	mv.row = row
	// A fresh slice: the scratch row is reused, and snapshots of the
	// old list must stay valid.
	list := sortedCopy(row)
	m.deliveries[i] = list
	for _, d := range list {
		if mv.state[d.Dst] == unmoved {
			m.patchEntry(d.Dst, i, d.GainMW, true)
		}
	}
	for _, d := range old {
		if mv.state[d.Dst] != unmoved {
			continue
		}
		if _, still := slices.BinarySearchFunc(list, d.Dst, byDst); !still {
			m.patchEntry(d.Dst, i, 0, false)
		}
	}
}

// moveDensePatch is the unbounded-model fallback: recompute row i (who
// hears i) from scratch and re-evaluate entry i in every other list, in
// that list's own direction — nothing vouches for an unbounded model's
// reciprocity (a Matrix is whatever the caller filled in). O(n) per
// moved node, mirroring denseDeliveries' per-pair computation.
func (m *Medium) moveDensePatch(i int) {
	n := len(m.positions)
	var list []Delivery
	for b := 0; b < n; b++ {
		if b == i {
			continue
		}
		if g, ok := m.audible(i, b); ok {
			list = append(list, Delivery{Dst: b, GainMW: g})
		}
	}
	m.deliveries[i] = list
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		g, ok := m.audible(j, i)
		m.patchEntry(j, i, g, ok)
	}
}

// patchEntry makes list j's entry for destination i carry gain g when
// audible, or disappear when not — insert, update, or remove,
// copy-on-write, preserving ascending order and the nil-when-empty
// convention.
func (m *Medium) patchEntry(j, i int, g float64, audible bool) {
	list := m.deliveries[j]
	k, ok := slices.BinarySearchFunc(list, i, byDst)
	switch {
	case ok && audible:
		if math.Float64bits(list[k].GainMW) == math.Float64bits(g) {
			return // unchanged — keep the shared backing array intact
		}
		nl := append([]Delivery(nil), list...)
		nl[k].GainMW = g
		m.deliveries[j] = nl
	case ok && !audible:
		if len(list) == 1 {
			m.deliveries[j] = nil
			return
		}
		nl := make([]Delivery, 0, len(list)-1)
		nl = append(nl, list[:k]...)
		nl = append(nl, list[k+1:]...)
		m.deliveries[j] = nl
	case !ok && audible:
		nl := make([]Delivery, 0, len(list)+1)
		nl = append(nl, list[:k]...)
		nl = append(nl, Delivery{Dst: i, GainMW: g})
		nl = append(nl, list[k:]...)
		m.deliveries[j] = nl
	}
}

// RebuildDeliveries replaces the delivery lists with a from-scratch
// build over the current positions. It exists for the equivalence tier
// and benchmarks — the oracle the incremental path is measured against.
func (m *Medium) RebuildDeliveries() {
	m.deliveries, m.gridBacked = BuildDeliveries(m.params, m.model, m.positions, 1)
	m.staleHeard()
}
