package medium

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// liveHandler is a listener that fails the test if it is upcalled while
// detached: SetHandler(nil) must stop the upcalls for good.
type liveHandler struct {
	t    *testing.T
	id   int
	live bool
}

func (h *liveHandler) check(what string) {
	if !h.live {
		h.t.Fatalf("radio %d: %s upcall after SetHandler(nil)", h.id, what)
	}
}
func (h *liveHandler) OnFrame(frame.Frame, phy.RxInfo) { h.check("OnFrame") }
func (h *liveHandler) OnCorrupt(phy.RxInfo)            { h.check("OnCorrupt") }
func (h *liveHandler) OnTxDone(frame.Frame)            { h.check("OnTxDone") }
func (h *liveHandler) OnCarrier(bool)                  { h.check("OnCarrier") }

// rewrap stands for a tracer decorating a station's handler: installing
// it replaces one non-nil handler with another, which is not an attach.
type rewrap struct{ phy.Handler }

// FuzzAttachOrder interleaves station attaches, transmissions, clock
// advances and node moves in any order — attaches at t=0 before and
// after frames of the same instant, attaches mid-run with frames on the
// air, SetHandler(nil) after an attach, a handler re-wrapped in place, a
// node's links re-drawn and the rows patched copy-on-write between a
// frame's start and its end — and checks what the "who hears a frame"
// rule promises whatever the order: each frame arrives at exactly the
// radios on its sender's row that a station attached to before it
// started (all of them, for a frame marked All), every Arrive is paired
// with a Depart (after the agenda drains no radio hears a signal, holds
// a lock or has a picowatt left in totalMW), a detached handler is never
// upcalled, and a radio no station ever attached to has counted nothing
// unless a frame marked All reached it. Who is attended and the All rule
// are re-derived here from the sequence of operations, not read back
// from the medium.
//
// Each step is an op byte and a node byte; see the switch.
func FuzzAttachOrder(f *testing.F) {
	// A CMAP-style construction: station 0 attaches and sends at t=0,
	// stations 1 and 2 attach in the same instant with that frame on
	// the air; time passes; 1 answers.
	f.Add([]byte{0, 7, 0, 0, 1, 0, 0, 1, 0, 2, 2, 9, 1, 1, 2, 40})
	// A frame at t=0 from a radio nobody attached to, then an attach in
	// the same instant, then traffic.
	f.Add([]byte{1, 3, 1, 2, 0, 0, 1, 0, 2, 1, 1, 2, 2, 30})
	// Mid-run attach with two frames in flight, one of them from the
	// attach instant of another station.
	f.Add([]byte{3, 200, 0, 0, 1, 0, 2, 3, 0, 1, 1, 1, 2, 2, 0, 2, 0, 3, 1, 2, 2, 50})
	// Detach, re-attach and re-wrap around frames on the air.
	f.Add([]byte{2, 90, 0, 0, 0, 1, 1, 0, 3, 1, 2, 1, 0, 1, 4, 0, 1, 0, 2, 1, 3, 0, 0, 0, 2, 60})
	// Found by the fuzzer against an Attend without its guard: detach
	// and re-attach with a frame on the air must not move since.
	f.Add([]byte("0020908100200"))
	f.Add([]byte("attach-order-seed: everybody talks, somebody listens"))
	// Moves (ops >= 240) with frames on the air and around attaches.
	f.Add([]byte{2, 17, 0, 0, 0, 1, 1, 0, 245, 1, 1, 1, 240, 0, 2, 3, 0, 2, 1, 2, 250, 2, 1, 0, 2, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 3 + int(next())%5
		// Links from a palette: decodable, marginal, two sub-sensitivity
		// levels above the delivery floor, and off the air. The matrix
		// need not be symmetric.
		palette := []float64{70, 98, 105, 112, offAir}
		mix := uint64(next()) + 1
		loss := make([][]float64, n)
		for i := range loss {
			loss[i] = make([]float64, n)
			for j := range loss[i] {
				if i != j {
					mix = sim.HashPair(mix, uint64(i*n+j))
					loss[i][j] = palette[mix%uint64(len(palette))]
				}
			}
		}
		sched := sim.NewScheduler()
		m := New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: loss}, make([]geo.Point, n), sim.NewRNG(1))
		rate := phy.RateByID(phy.Rate6Mbps)

		handlers := make([]*liveHandler, n)
		for i := range handlers {
			handlers[i] = &liveHandler{t: t, id: i}
		}
		attended := make([]bool, n)   // a station attached at some point
		reachedAll := make([]bool, n) // a frame marked All was delivered here
		attachAt := sim.Time(-1)
		onRow := make([]bool, n)
		signals := make([]int, n) // each radio's signal count before a frame

		for len(data) >= 2 {
			op, i := next(), int(next())%n
			r := m.Radio(i)
			kind := op % 5
			if op >= 240 {
				kind = 5
			}
			switch kind {
			case 0: // attach (or re-attach after a detach)
				if !attended[i] {
					attended[i] = true
					attachAt = sched.Now()
				}
				handlers[i].live = true
				r.SetHandler(handlers[i])
			case 1: // transmit, attended or not
				if r.Transmitting() {
					continue
				}
				all := sched.Now() == attachAt
				// From the reference build, not the medium: a full read
				// here would spare the frame the attended-part row a
				// move leaves it to build.
				clear(onRow)
				for _, d := range denseDeliveries(m.params, m.model, m.positions)[i] {
					onRow[d.Dst] = true
				}
				for j := range signals {
					signals[j] = m.Radio(j).ActiveSignals()
				}
				r.Transmit(&frame.Dot11Data{Src: frame.AddrFromID(i), Dst: frame.AddrFromID((i + 1) % n), PayloadLen: 20 + 10*uint16(op)}, rate)
				// Every Arrive adds one signal at its radio.
				for j := 0; j < n; j++ {
					want := 0
					if onRow[j] && (all || attended[j]) {
						want = 1
						reachedAll[j] = reachedAll[j] || all
					}
					if got := m.Radio(j).ActiveSignals() - signals[j]; got != want {
						t.Fatalf("frame from %d: radio %d gained %d signals, want %d (on the row %v, attended %v, All %v)",
							i, j, got, want, onRow[j], attended[j], all)
					}
				}
			case 2: // let time pass: up to ~2.5 ms, frames last 0.1–3.5 ms
				sched.Run(sched.Now() + sim.Time(i+1)*sim.Time(op)*sim.Microsecond*2)
			case 3: // detach: upcalls stop, the radio keeps hearing
				handlers[i].live = false
				r.SetHandler(nil)
			case 4: // a tracer wraps the installed handler
				if handlers[i].live {
					r.SetHandler(rewrap{handlers[i]})
				}
			case 5: // the node moves: its links are re-drawn, the rows patched
				for j := 0; j < n; j++ {
					if j != i {
						mix = sim.HashPair(mix, uint64(op))
						loss[i][j] = palette[mix%uint64(len(palette))]
						mix = sim.HashPair(mix, uint64(j))
						loss[j][i] = palette[mix%uint64(len(palette))]
					}
				}
				m.MoveNodes([]int{i}, []geo.Point{{X: float64(op)}})
			}
		}
		sched.RunAll()

		for i := 0; i < n; i++ {
			r := m.Radio(i)
			if r.ActiveSignals() != 0 || r.TotalMW != 0 || r.Locked != nil || r.CarrierBusy() {
				t.Fatalf("radio %d after the last frame: %d signals, totalMW %v, locked on %v, carrier busy %v — an Arrive without its Depart, or the reverse",
					i, r.ActiveSignals(), r.TotalMW, r.Locked, r.CarrierBusy())
			}
			if !attended[i] && !reachedAll[i] {
				heard := r.Stats()
				heard.Transmitted = 0 // its own doing
				if heard != (phy.RadioStats{}) {
					t.Fatalf("radio %d was never attended and no All frame reached it, yet it counted %+v", i, heard)
				}
			}
		}
	})
}
