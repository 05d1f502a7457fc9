package medium

import (
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// FuzzDeliveryPatch drives random move sequences — zero-length moves,
// cell-boundary crossings, far out-of-arena jumps and shadow-epoch
// bumps, singly and in partial batches — through MoveNodes and checks
// after every batch that the patched delivery lists are bit-identical
// to the sparse grid build and the dense O(n²) reference over the
// current positions, and to a twin medium that took the same moves one
// MoveNode at a time — and that the batch left no handoff undelivered.
//
// Each step is a node byte, an op byte and up to two coordinate bytes.
// Op bits 0–1 pick the move kind; bit 6 bumps the node's shadow epoch
// first; bit 7 holds the move back, so it lands in one MoveNodes call
// together with every held move before it and the next unheld one —
// moved↔moved and moved↔unmoved pairs in the same batch, the same node
// possibly listed twice.
func FuzzDeliveryPatch(f *testing.F) {
	f.Add([]byte{6, 10, 20, 60, 90, 120, 5, 40, 80, 15, 33, 77, 0, 1, 0, 0, 1, 0, 120, 120, 2, 1, 9})
	f.Add([]byte("delivery-patch-seed: shuffle everyone around"))
	f.Add([]byte{4, 0, 0, 50, 0, 0, 50, 50, 50, 0, 0, 0, 0, 1, 1, 255, 255, 2, 0, 128, 3, 64, 64})
	// Held moves: a three-node batch with a zero-length move and an
	// out-of-arena jump, then a bumped pair, then a node listed twice.
	f.Add([]byte{5, 10, 10, 30, 10, 50, 10, 30, 40, 90, 90, 60, 60, 10, 70,
		0, 0x82, 8, 8, 1, 0x80, 2, 0x01, 200, 3,
		3, 0xc2, 250, 4, 4, 0x42, 6, 250,
		5, 0x83, 20, 20, 5, 0x02, 40, 40})
	// The whole medium in one batch, in reverse id order, with node 6
	// listed twice: every pair is moved at both ends.
	whole := []byte{9} // 13 nodes
	for i := 0; i < 13; i++ {
		whole = append(whole, byte(17*i), byte(29*i%200))
	}
	for i := 12; i >= 0; i-- {
		whole = append(whole, byte(i), 0x82, byte(3*i), byte(250-5*i))
	}
	f.Add(append(whole, 6, 0x02, 40, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 4 + int(data[0])%10
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		params := phy.DefaultParams()
		inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3.2, ShadowSigmaDB: 3, Seed: 0xf022}
		model := mobility.NewChannel(inner, n)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: float64(next()), Y: float64(next())}
		}
		rows, grid := BuildDeliveries(params, model, pts, 1)
		m := NewFromRows(sim.NewScheduler(), params, model, pts, sim.NewRNG(1), rows, grid)
		twin := NewFromRows(sim.NewScheduler(), params, model, pts, sim.NewRNG(1), rows, grid)
		verify := func() {
			sparse, _ := BuildDeliveries(params, model, m.positions, 1)
			requireListsEqual(t, "sparse oracle", m.deliveries, sparse)
			requireListsEqual(t, "dense oracle", m.deliveries, denseDeliveries(params, model, m.positions))
			requireListsEqual(t, "one MoveNode at a time", m.deliveries, twin.deliveries)
		}
		verify()
		var ids []int
		var to []geo.Point
		flush := func() {
			m.MoveNodes(ids, to)
			for k, i := range ids {
				twin.MoveNode(i, to[k])
			}
			ids, to = ids[:0], to[:0]
			verify()
			if mv := m.mv; mv.live != 0 || slices.ContainsFunc(mv.head, func(k int32) bool { return k != none }) {
				t.Fatalf("the batch left %d handoffs undelivered (heads %v)", mv.live, mv.head)
			}
		}
		for len(data) >= 3 {
			i := int(next()) % n
			op := next()
			var p geo.Point
			switch op % 4 {
			case 0: // zero-length move
				p = m.positions[i]
			case 1: // far out of the construction bounds (edge-cell clamp)
				p = geo.Point{X: float64(next())*50 - 3000, Y: float64(next())*50 - 3000}
			default: // local jitter, crossing cell boundaries
				p = geo.Point{
					X: m.positions[i].X + float64(int8(next()))/2,
					Y: m.positions[i].Y + float64(int8(next()))/2,
				}
			}
			if op&0x40 != 0 {
				model.Bump(i)
			}
			ids, to = append(ids, i), append(to, p)
			if op&0x80 == 0 {
				flush()
			}
		}
		flush() // whatever is still held, possibly nothing
	})
}
