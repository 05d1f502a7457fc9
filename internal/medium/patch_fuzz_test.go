package medium

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// FuzzDeliveryPatch drives random move sequences — zero-length moves,
// cell-boundary crossings, far out-of-arena jumps and shadow-epoch
// bumps, singly and in partial batches — through MoveNodes, with row
// reads interleaved, and checks every row it reads, through the
// refreshing accessor, against the sparse grid build and the dense
// O(n²) reference over the current positions, and against a twin
// medium that took the same moves one MoveNode at a time. A row nobody
// reads stays stale across batches, so a read after several of them
// holds the staleness tracking to the oracles, not only the row
// builder. After the last step every row is read.
//
// Each step is a node byte, an op byte and up to two coordinate bytes.
// Op bit 5 reads the node's row instead of moving it, and takes no
// coordinate byte. Otherwise op bits 0–1 pick the move kind; bit 6
// bumps the node's shadow epoch when its batch is applied, as the
// mobility manager does; bit 7 holds the move back, so it lands in one
// MoveNodes call together with every held move before it and the next
// unheld one — the same node possibly listed twice, with reads of the
// old geometry in between.
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
	// Reads between held moves, a read of a row two batches stale, and
	// a read right after a bump.
	f.Add([]byte{3, 10, 10, 40, 10, 70, 10, 40, 40, 70, 70, 100, 40, 20, 90,
		0, 0x20, 1, 0x82, 30, 30, 1, 0x20, 2, 0x02, 240, 8,
		3, 0x03, 60, 2, 0, 0x20, 4, 0x42, 9, 9, 4, 0x20, 1, 0x20})
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
		read := func(i int) {
			sparse, _ := BuildDeliveries(params, model, m.positions, 1)
			got := m.row(i)
			requireRowEqual(t, "sparse oracle", i, got, sparse[i])
			requireRowEqual(t, "dense oracle", i, got, denseDeliveries(params, model, m.positions)[i])
			requireRowEqual(t, "one MoveNode at a time", i, got, twin.row(i))
		}
		var ids, bumps []int
		var to []geo.Point
		flush := func() {
			for _, i := range bumps {
				model.Bump(i)
			}
			m.MoveNodes(ids, to)
			for k, i := range ids {
				twin.MoveNode(i, to[k])
			}
			ids, to, bumps = ids[:0], to[:0], bumps[:0]
		}
		for len(data) >= 3 {
			i := int(next()) % n
			op := next()
			if op&0x20 != 0 {
				read(i)
				continue
			}
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
				bumps = append(bumps, i)
			}
			ids, to = append(ids, i), append(to, p)
			if op&0x80 == 0 {
				flush()
			}
		}
		flush() // whatever is still held, possibly nothing
		for i := 0; i < n; i++ {
			read(i)
		}
	})
}
