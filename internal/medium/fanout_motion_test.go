package medium

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// reached lists the receivers a frame's start fan-out reached, in the
// order it reached them, with the power each heard.
func reached(tx *phy.Transmission) []Delivery {
	if tx.Heard == nil {
		return tx.Deliveries
	}
	out := make([]Delivery, len(tx.Heard))
	for i, k := range tx.Heard {
		out[i] = tx.Deliveries[k]
	}
	return out
}

// requireReached fails unless the frame's start fan-out reached exactly
// want's receivers, in order, at want's powers to the bit.
func requireReached(t *testing.T, label string, tx *phy.Transmission, want []Delivery) {
	t.Helper()
	got := reached(tx)
	if len(got) != len(want) {
		t.Fatalf("%s: %d receivers, want %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k].Dst != want[k].Dst || math.Float64bits(got[k].GainMW) != math.Float64bits(want[k].GainMW) {
			t.Fatalf("%s: receiver %d = %+v, want %+v", label, k, got[k], want[k])
		}
	}
}

// TestFanoutMatchesRebuildUnderMotion interleaves, from a seeded
// stream, random batches (partial, zero-length and out-of-arena moves),
// shadow-epoch bumps, attaches, full row reads, frames and the passing
// of time on a mobility.Channel medium, and holds every frame's receiver
// list — who it reached, in order, and every power bit — to the
// attended part of a from-scratch BuildDeliveries over the positions
// and shadow epochs of its start, or to the whole row for a frame of an
// attach instant. Full reads are held to the same oracle. Frames and
// reads favour a few nodes, so a sender often transmits, has its full
// row read and transmits again within one epoch: the second frame must
// not carry a heard row derived over the attended part that the full
// read replaced. Every case runs on the grid path and on the dense
// fallback; after the last step the agenda drains and no radio may hold
// a signal. The static cases (staticFanout) run with no batch at all.
func TestFanoutMatchesRebuildUnderMotion(t *testing.T) {
	t.Run("static", staticFanout)
	const n, steps, busy = 40, 600, 4
	arena := arenas["field"]
	rate := phy.RateByID(phy.Rate6Mbps)
	for _, dense := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			params := phy.DefaultParams()
			inner := &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0xfa40 + seed}
			rng := sim.NewRNG(seed)
			ch := mobility.NewChannel(inner, n)
			var model radio.Model = ch
			if dense {
				model = unbounded{ch}
			}
			sched := sim.NewScheduler()
			m := New(sched, params, model, scatter(n, arena, rng.Stream(7)), rng.Stream(1))
			draw := rng.Stream(9)
			pick := func() int {
				if draw.Intn(4) != 0 {
					return draw.Intn(busy)
				}
				return draw.Intn(n)
			}
			attended := make([]bool, n)
			attachAt := sim.Time(-1)
			attend := func(i int) {
				if !attended[i] {
					attended[i], attachAt = true, sched.Now()
				}
				m.Radio(i).SetHandler(&recorder{})
			}
			for i := 0; i < n; i += 4 {
				attend(i)
			}
			oracle := func() [][]Delivery {
				rows, _ := BuildDeliveries(params, ch, m.positions, 1)
				return rows
			}
			frames := 0
			for step := 0; step < steps; step++ {
				switch op := draw.Intn(50); {
				case op < 5: // a batch, some of its nodes' shadowing re-drawn
					var ids []int
					var pts []geo.Point
					for i := 0; i < n; i++ {
						if draw.Float64() < 0.3 {
							continue
						}
						p := m.positions[i]
						switch draw.Intn(6) {
						case 0: // zero-length
						case 1:
							p = geo.Point{X: p.X - 3000, Y: p.Y + 3000}
						default:
							p = geo.Point{X: p.X + 40*(draw.Float64()-0.5), Y: p.Y + 40*(draw.Float64()-0.5)}
						}
						if draw.Intn(3) == 0 {
							ch.Bump(i)
						}
						ids, pts = append(ids, i), append(pts, p)
					}
					m.MoveNodes(ids, pts)
				case op == 5: // rare, or soon every node would listen
					attend(draw.Intn(n))
				case op < 16: // a full read, through each accessor in turn
					i := pick()
					want := oracle()[i]
					var got []Delivery
					switch step % 3 {
					case 0:
						if k := m.NeighborCount(i); k != len(want) {
							t.Fatalf("seed %d step %d: node %d has %d neighbours, want %d", seed, step, i, k, len(want))
						}
						got = m.deliveries[i]
					case 1:
						m.ForEachNeighbor(i, func(dst int, g float64) { got = append(got, Delivery{Dst: dst, GainMW: g}) })
					default:
						m.GainMW(i, (i+1)%n)
						got = m.deliveries[i]
					}
					requireRowEqual(t, "full read", i, got, want)
				case op < 25: // time passes: frames last ~2 ms
					sched.Run(sched.Now() + sim.Time(draw.Intn(3000))*sim.Microsecond)
				default: // a frame
					src := pick()
					r := m.Radio(src)
					if r.Transmitting() {
						continue
					}
					all := sched.Now() == attachAt
					tx := new(phy.Transmission)
					m.txFree = append(m.txFree, tx) // the frame borrows this one
					r.Transmit(dataFrame(src, (src+1)%n), rate)
					var want []Delivery
					for _, d := range oracle()[src] {
						if all || attended[d.Dst] {
							want = append(want, d)
						}
					}
					requireReached(t, fmt.Sprintf("seed %d step %d src %d", seed, step, src), tx, want)
					frames++
				}
			}
			sched.RunAll()
			for i := 0; i < n; i++ {
				if r := m.Radio(i); r.ActiveSignals() != 0 || r.TotalMW != 0 {
					t.Fatalf("seed %d: radio %d holds %d signals, %v mW after the agenda drained", seed, i, r.ActiveSignals(), r.TotalMW)
				}
			}
			if frames < steps/4 {
				t.Fatalf("seed %d: only %d frames went on the air", seed, frames)
			}
		}
	}
}

// staticFanout holds a New medium that never moves to the same oracle,
// over a shadowed LogDistance, a FreeSpace and an asymmetric Matrix:
// every row starts stale, so frames from every third node, each sender
// twice, come before any full read and must reach the attended part of
// BuildDeliveries' row; a full read of every row, in shuffled order,
// must then equal that row bit for bit, and a frame after it must still
// reach the attended part.
func staticFanout(t *testing.T) {
	const n = 40
	rate := phy.RateByID(phy.Rate6Mbps)
	rng := sim.NewRNG(0x57a7)
	mx := &radio.Matrix{LossDB: make([][]float64, n)}
	for a := range mx.LossDB {
		mx.LossDB[a] = make([]float64, n)
		for b := range mx.LossDB[a] {
			mx.LossDB[a][b] = 55 + 60*rng.Float64() // each direction its own draw
		}
	}
	for _, tc := range []struct {
		name  string
		model radio.Model
		arena geo.Rect
	}{
		{"LogDistance", &radio.LogDistance{RefLossDB: 50, Exponent: 3.0, ShadowSigmaDB: 4, Seed: 0x57a7}, arenas["field"]},
		{"FreeSpace", &radio.FreeSpace{RefLossDB: 47, Exponent: 2.5}, arenas["field"]},
		{"Matrix", mx, arenas["room"]},
	} {
		params := phy.DefaultParams()
		sched := sim.NewScheduler()
		m := New(sched, params, tc.model, scatter(n, tc.arena, rng.Stream(7)), rng.Stream(1))
		want, _ := BuildDeliveries(params, tc.model, m.positions, 1)
		attended := make([]bool, n)
		for i := 0; i < n; i += 3 {
			attended[i] = true
			m.Radio(i).SetHandler(&recorder{})
		}
		sched.Run(sim.Microsecond) // past the attach instant: no frame goes to every radio
		reachedAny := false
		frames := func(when string) {
			for src := 0; src < n; src += 3 {
				tx := new(phy.Transmission)
				m.txFree = append(m.txFree, tx) // the frame borrows this one
				m.Radio(src).Transmit(dataFrame(src, (src+3)%n), rate)
				var part []Delivery
				for _, d := range want[src] {
					if attended[d.Dst] {
						part = append(part, d)
					}
				}
				requireReached(t, fmt.Sprintf("%s: %s frame from %d", tc.name, when, src), tx, part)
				reachedAny = reachedAny || len(part) > 0
			}
			sched.Run(sched.Now() + 10*sim.Millisecond) // every frame ends
		}
		frames("first")
		frames("second")
		for k, i := range rng.Perm(n) {
			var got []Delivery
			if k%2 == 0 {
				m.NeighborCount(i)
				got = m.deliveries[i]
			} else {
				m.ForEachNeighbor(i, func(dst int, g float64) { got = append(got, Delivery{Dst: dst, GainMW: g}) })
			}
			requireRowEqual(t, tc.name+": full read", i, got, want[i])
		}
		frames("post-read")
		if !reachedAny {
			t.Fatalf("%s: no frame reached a receiver", tc.name)
		}
	}
}
