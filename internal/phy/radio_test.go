package phy

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// stubChannel is a phy.Channel that records transmissions and returns a
// fixed end time.
type stubChannel struct {
	end   sim.Time
	calls int
	last  frame.Frame
}

func (c *stubChannel) Transmit(from *Radio, f frame.Frame, r Rate) sim.Time {
	c.calls++
	c.last = f
	return c.end
}

func (c *stubChannel) Attend(*Radio) {}

// recHandler records upcalls.
type recHandler struct {
	frames  []frame.Frame
	infos   []RxInfo
	corrupt []RxInfo
}

func (h *recHandler) OnFrame(f frame.Frame, info RxInfo) {
	h.frames = append(h.frames, f)
	h.infos = append(h.infos, info)
}
func (h *recHandler) OnCorrupt(info RxInfo) { h.corrupt = append(h.corrupt, info) }
func (h *recHandler) OnTxDone(frame.Frame)  {}
func (h *recHandler) OnCarrier(bool)        {}

func testRadio(t *testing.T, params Params) (*Radio, *recHandler, *stubChannel, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	ch := &stubChannel{end: 1234 * sim.Microsecond}
	r := NewRadio(0, params, sched, sim.NewRNG(1), ch)
	h := &recHandler{}
	r.SetHandler(h)
	return r, h, ch, sched
}

func testFrame(src int) *frame.Dot11Data {
	return &frame.Dot11Data{Src: frame.AddrFromID(src), Dst: frame.Broadcast, PayloadLen: 1400}
}

func testTx(id uint64, from int) *Transmission {
	return &Transmission{TxID: id, From: from, Frame: testFrame(from), Rate: RateByID(Rate6Mbps)}
}

// edge is a scripted signal edge, posted on the agenda: firing it starts
// tx at r with power mw, or ends tx when mw is zero.
type edge struct {
	r  *Radio
	tx *Transmission
	mw float64
}

func (e edge) HandleEvent(any) {
	if e.mw > 0 {
		e.r.SignalStart(e.tx, e.mw)
	} else {
		e.r.SignalEnd(e.tx)
	}
}

// TestTransmitReturnsChannelEndTime is the regression test for
// Radio.Transmit returning 0 instead of the end time the channel
// reported, contradicting its own doc comment.
func TestTransmitReturnsChannelEndTime(t *testing.T) {
	r, _, ch, _ := testRadio(t, DefaultParams())
	got := r.Transmit(testFrame(0), RateByID(Rate6Mbps))
	if got != ch.end {
		t.Fatalf("Transmit returned %v, want the channel's end time %v", got, ch.end)
	}
	if ch.calls != 1 {
		t.Fatalf("channel saw %d transmissions, want 1", ch.calls)
	}
}

// TestCaptureStatAccounting pins the tryCapture bookkeeping: a stolen
// lock increments Captures AND Corrupted (the truncated frame), reports
// the old frame via OnCorrupt, and the capturing frame then decodes.
func TestCaptureStatAccounting(t *testing.T) {
	r, h, _, sched := testRadio(t, DefaultParams())
	weak, strong := testTx(1, 1), testTx(2, 2)
	weakMW := radio.DBmToMW(-70)   // SINR 19 dB alone: certain lock
	strongMW := radio.DBmToMW(-40) // 30 dB above weak: certain capture

	sched.Post(0, edge{r, weak, weakMW}, nil)
	sched.Post(100*sim.Microsecond, edge{r, strong, strongMW}, nil)
	sched.Post(2000*sim.Microsecond, edge{r: r, tx: weak}, nil)
	sched.Post(2100*sim.Microsecond, edge{r: r, tx: strong}, nil)
	sched.Run(150 * sim.Microsecond)

	st := r.Stats()
	if st.Missed != 0 {
		t.Fatal("clean -70 dBm arrival did not lock")
	}
	if st.Captures != 1 {
		t.Errorf("Captures = %d, want 1", st.Captures)
	}
	if st.Corrupted != 1 {
		t.Errorf("Corrupted = %d, want 1 (the truncated weak frame)", st.Corrupted)
	}
	if len(h.corrupt) != 1 || h.corrupt[0].From != 1 {
		t.Fatalf("OnCorrupt = %+v, want one event from node 1", h.corrupt)
	}
	if got := h.corrupt[0].End; got != 100*sim.Microsecond {
		t.Errorf("truncated frame reported end %v, want the capture instant 100µs", got)
	}

	sched.RunAll()
	st = r.Stats()
	if st.Decoded != 1 || len(h.frames) != 1 || h.infos[0].From != 2 {
		t.Errorf("capturing frame not decoded: stats %+v, frames %d", st, len(h.frames))
	}
	if st.Corrupted != 1 || st.Captures != 1 {
		t.Errorf("end-of-air changed capture counters: %+v", st)
	}
	if r.ActiveSignals() != 0 {
		t.Errorf("%d active signals after both ended, want 0", r.ActiveSignals())
	}
}

// TestCaptureBelowMargin pins the capture margin: a late arrival 5 dB
// stronger than the locked frame is well short of CaptureMarginDB, so
// it must not steal the lock — the locked frame keeps the receiver and
// is destroyed by the interference instead.
func TestCaptureBelowMargin(t *testing.T) {
	r, h, _, sched := testRadio(t, DefaultParams())
	weak, strong := testTx(1, 1), testTx(2, 2)

	sched.Post(0, edge{r, weak, radio.DBmToMW(-70)}, nil)
	sched.Post(100*sim.Microsecond, edge{r, strong, radio.DBmToMW(-65)}, nil)
	sched.Run(150 * sim.Microsecond)
	if st := r.Stats(); st.Captures != 0 || st.Corrupted != 0 {
		t.Fatalf("arrival below the capture margin captured: %+v", st)
	}
	if len(h.corrupt) != 0 {
		t.Fatalf("OnCorrupt fired below the capture margin: %+v", h.corrupt)
	}

	// The weak frame stays locked; with -65 dBm interference over most
	// of its airtime its decode must fail, not be silently dropped.
	sched.Post(2000*sim.Microsecond, edge{r: r, tx: strong}, nil)
	sched.Post(2100*sim.Microsecond, edge{r: r, tx: weak}, nil)
	sched.RunAll()
	if st := r.Stats(); st.Decoded != 0 || st.Corrupted != 1 {
		t.Errorf("overpowered locked frame: stats %+v, want 0 decoded / 1 corrupted", st)
	}
	if len(h.corrupt) != 1 || h.corrupt[0].From != 1 {
		t.Errorf("OnCorrupt = %+v, want the jammed frame from node 1", h.corrupt)
	}
}

// TestBelowSensitivityArrivals pins the sensitivity gate on both lock
// paths: an idle radio counts the arrival as missed; a locked radio
// ignores it entirely (no capture attempt, no corruption).
func TestBelowSensitivityArrivals(t *testing.T) {
	r, h, _, sched := testRadio(t, DefaultParams())
	faint := testTx(1, 1)
	r.SignalStart(faint, radio.DBmToMW(-100)) // below -92 dBm sensitivity
	if st := r.Stats(); st.Missed != 1 {
		t.Fatalf("idle radio below-sensitivity arrival: Missed = %d, want 1", st.Missed)
	}
	if r.CarrierBusy() {
		t.Error("carrier busy on a -100 dBm signal")
	}
	r.SignalEnd(faint)

	// Now while locked: the faint arrival must not perturb the lock.
	good, faint2 := testTx(2, 2), testTx(3, 3)
	sched.Post(0, edge{r, good, radio.DBmToMW(-70)}, nil)
	sched.Post(0, edge{r, faint2, radio.DBmToMW(-100)}, nil)
	sched.Post(1000*sim.Microsecond, edge{r: r, tx: faint2}, nil)
	sched.Post(1100*sim.Microsecond, edge{r: r, tx: good}, nil)
	sched.Run(10 * sim.Microsecond)
	if st := r.Stats(); st.Captures != 0 || st.Corrupted != 0 || st.Missed != 1 {
		t.Fatalf("locked radio below-sensitivity arrival changed stats: %+v", st)
	}
	sched.RunAll()
	if st := r.Stats(); st.Decoded != 1 || len(h.frames) != 1 {
		t.Errorf("locked frame lost after faint interferer: %+v", st)
	}
}
