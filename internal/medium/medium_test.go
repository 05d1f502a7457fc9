package medium

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// recorder is a phy.Handler that logs every upcall.
type recorder struct {
	frames  []frame.Frame
	infos   []phy.RxInfo
	corrupt []phy.RxInfo
	txDone  []frame.Frame
	carrier []bool
	hookTx  func(f frame.Frame)
}

func (r *recorder) OnFrame(f frame.Frame, info phy.RxInfo) {
	r.frames = append(r.frames, f)
	r.infos = append(r.infos, info)
}
func (r *recorder) OnCorrupt(info phy.RxInfo) { r.corrupt = append(r.corrupt, info) }
func (r *recorder) OnTxDone(f frame.Frame) {
	r.txDone = append(r.txDone, f)
	if r.hookTx != nil {
		r.hookTx(f)
	}
}
func (r *recorder) OnCarrier(busy bool) { r.carrier = append(r.carrier, busy) }

// testMedium builds a medium over n nodes with an explicit loss matrix and
// returns it along with one recorder per node.
func testMedium(t *testing.T, lossDB [][]float64) (*Medium, []*recorder, *sim.Scheduler) {
	t.Helper()
	n := len(lossDB)
	sched := sim.NewScheduler()
	positions := make([]geo.Point, n)
	m := New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: lossDB}, positions, sim.NewRNG(1))
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		m.Radio(i).SetHandler(recs[i])
	}
	return m, recs, sched
}

// loss value that keeps rx power far below the delivery floor.
const offAir = 300.0

func sym(vals [][]float64) [][]float64 { return vals }

func dataFrame(src, dst int) *frame.Dot11Data {
	return &frame.Dot11Data{Src: frame.AddrFromID(src), Dst: frame.AddrFromID(dst), PayloadLen: 1400}
}

// call is the tests' one-off event handler: the function it holds runs
// when the event fires.
type call func()

func (c call) HandleEvent(any) { c() }

func TestCleanDelivery(t *testing.T) {
	// A(0) → B(1): loss 70 dB → rx -60 dBm, SNR 29 dB effective: certain decode.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70},
		{70, 0},
	}))
	f := dataFrame(0, 1)
	m.Radio(0).Transmit(f, phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()

	if len(recs[1].frames) != 1 {
		t.Fatalf("B decoded %d frames, want 1", len(recs[1].frames))
	}
	if recs[1].frames[0] != f {
		t.Error("B decoded a different frame")
	}
	info := recs[1].infos[0]
	if info.From != 0 {
		t.Errorf("info.From = %d, want 0", info.From)
	}
	if math.Abs(info.PowerDBm()-(-60)) > 1e-9 {
		t.Errorf("info.PowerDBm() = %v, want -60", info.PowerDBm())
	}
	if len(recs[0].txDone) != 1 {
		t.Errorf("A got %d OnTxDone, want 1", len(recs[0].txDone))
	}
	if want := phy.Airtime(phy.RateByID(phy.Rate6Mbps), f.WireSize()); info.End-info.Start != want {
		t.Errorf("airtime = %v, want %v", info.End-info.Start, want)
	}
}

func TestOutOfRangeSilent(t *testing.T) {
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, offAir},
		{offAir, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	if len(recs[1].frames)+len(recs[1].corrupt)+len(recs[1].carrier) != 0 {
		t.Error("out-of-range receiver observed the transmission")
	}
}

func TestPromiscuousDelivery(t *testing.T) {
	// A(0) → B(1), but C(2) also hears it and must get the frame too.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70, 75},
		{70, 0, 80},
		{75, 80, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	if len(recs[2].frames) != 1 {
		t.Errorf("overhearing node decoded %d frames, want 1 (promiscuous)", len(recs[2].frames))
	}
}

func TestCollisionCorrupts(t *testing.T) {
	// A(0) and C(2) transmit simultaneously with equal power at B(1):
	// SINR ≈ 0 dB → B locks neither or corrupts. They cannot hear each other.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70, offAir},
		{70, 0, 70},
		{offAir, 70, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	m.Radio(2).Transmit(dataFrame(2, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	if len(recs[1].frames) != 0 {
		t.Errorf("B decoded %d frames from an equal-power collision, want 0", len(recs[1].frames))
	}
}

func TestCaptureStrongFirstFrame(t *testing.T) {
	// A strong (-55 dBm at B), C weak (-85 dBm at B): B locks A's frame
	// first and decodes it despite C (SINR ≈ 30 dB).
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 65, offAir},
		{65, 0, 95},
		{offAir, 95, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.PostAfter(50*sim.Microsecond, call(func() {
		m.Radio(2).Transmit(dataFrame(2, 1), phy.RateByID(phy.Rate6Mbps))
	}), nil)
	sched.RunAll()
	if len(recs[1].frames) != 1 {
		t.Fatalf("B decoded %d frames, want 1 (capture)", len(recs[1].frames))
	}
	if recs[1].infos[0].From != 0 {
		t.Errorf("B captured frame from %d, want 0", recs[1].infos[0].From)
	}
}

func TestLateStrongFrameCapturesLocked(t *testing.T) {
	// B locks the weak frame from C first; A's much stronger frame arrives
	// mid-way. OFDM sync restart (capture) steals the lock: the weak frame
	// is reported corrupted, the strong one decodes.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 65, offAir},
		{65, 0, 90},
		{offAir, 90, 0},
	}))
	m.Radio(2).Transmit(dataFrame(2, 1), phy.RateByID(phy.Rate6Mbps))
	sched.PostAfter(200*sim.Microsecond, call(func() {
		m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	}), nil)
	sched.RunAll()
	if len(recs[1].frames) != 1 || recs[1].infos[0].From != 0 {
		t.Errorf("B decoded %d frames (want 1, captured from node 0)", len(recs[1].frames))
	}
	if len(recs[1].corrupt) != 1 || recs[1].corrupt[0].From != 2 {
		t.Errorf("B corrupt events = %+v, want 1 truncated frame from node 2", recs[1].corrupt)
	}
	if m.Radio(1).Stats().Captures != 1 {
		t.Errorf("Captures = %d, want 1", m.Radio(1).Stats().Captures)
	}
}

func TestNoCaptureBetweenComparableFrames(t *testing.T) {
	// A later frame only ~3 dB stronger must NOT capture the lock.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 65, offAir},
		{65, 0, 68},
		{offAir, 68, 0},
	}))
	m.Radio(2).Transmit(dataFrame(2, 1), phy.RateByID(phy.Rate6Mbps))
	sched.PostAfter(200*sim.Microsecond, call(func() {
		m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	}), nil)
	sched.RunAll()
	if m.Radio(1).Stats().Captures != 0 {
		t.Errorf("Captures = %d, want 0 for a 3 dB difference", m.Radio(1).Stats().Captures)
	}
	if len(recs[1].frames) != 0 {
		t.Errorf("B decoded %d frames from a near-equal collision, want 0", len(recs[1].frames))
	}
}

func TestCarrierSenseEdges(t *testing.T) {
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70},
		{70, 0},
	}))
	if m.Radio(1).CarrierBusy() {
		t.Error("carrier busy before any transmission")
	}
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	if !m.Radio(1).CarrierBusy() {
		t.Error("carrier idle during transmission at -60 dBm")
	}
	sched.RunAll()
	if m.Radio(1).CarrierBusy() {
		t.Error("carrier busy after transmission ended")
	}
	if len(recs[1].carrier) != 2 || recs[1].carrier[0] != true || recs[1].carrier[1] != false {
		t.Errorf("carrier edges = %v, want [true false]", recs[1].carrier)
	}
	// The transmitter itself is busy while sending.
	m2, _, sched2 := testMedium(t, sym([][]float64{{0, 70}, {70, 0}}))
	m2.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	if !m2.Radio(0).CarrierBusy() {
		t.Error("transmitter's own carrier not busy")
	}
	sched2.RunAll()
}

func TestWeakSignalBelowCSThreshold(t *testing.T) {
	// rx power -88 dBm: above delivery floor and sensitivity, below the
	// -82 dBm carrier-sense threshold. The receiver can still lock
	// (preamble decodable) but a third party with no lock would not see
	// carrier. Here node 1 locks, so its carrier IS busy; node 2 hears the
	// signal below CS threshold and cannot lock (below its sensitivity of
	// -92? -88 is above -92, so it locks too...). Use -96 dBm at node 2:
	// below sensitivity → no lock, no carrier.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 98, 106},
		{98, 0, 80},
		{106, 80, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	if m.Radio(2).CarrierBusy() {
		t.Error("node 2 carrier busy on a -96 dBm signal")
	}
	sched.RunAll()
	if len(recs[2].frames) != 0 {
		t.Error("node 2 decoded a signal below sensitivity")
	}
	_ = recs
}

func TestHalfDuplexTxAbortsRx(t *testing.T) {
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70},
		{70, 0},
	}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	// Mid-reception, B transmits: its reception of A's frame must abort.
	sched.PostAfter(100*sim.Microsecond, call(func() {
		m.Radio(1).Transmit(dataFrame(1, 0), phy.RateByID(phy.Rate6Mbps))
	}), nil)
	sched.RunAll()
	if len(recs[1].frames) != 0 {
		t.Error("B decoded a frame while transmitting over it (half-duplex violated)")
	}
	if m.Radio(1).Stats().AbortedRx != 1 {
		t.Errorf("AbortedRx = %d, want 1", m.Radio(1).Stats().AbortedRx)
	}
	// A, busy transmitting at the time B's frame started, must not decode it.
	if len(recs[0].frames) != 0 {
		t.Error("A decoded a frame that arrived while it was transmitting")
	}
}

func TestBackToBackFrames(t *testing.T) {
	// A sends two frames with zero gap (chained from OnTxDone): B must
	// decode both — the pattern CMAP virtual packets rely on.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70},
		{70, 0},
	}))
	second := dataFrame(0, 1)
	sent := 0
	recs[0].hookTx = func(frame.Frame) {
		if sent == 0 {
			sent++
			m.Radio(0).Transmit(second, phy.RateByID(phy.Rate6Mbps))
		}
	}
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	if len(recs[1].frames) != 2 {
		t.Fatalf("B decoded %d back-to-back frames, want 2", len(recs[1].frames))
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Classic hidden terminals: A(0) and C(2) cannot hear each other, both
	// reach B(1) strongly. Simultaneous saturation destroys most frames.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 72, offAir},
		{72, 0, 73},
		{offAir, 73, 0},
	}))
	rate := phy.RateByID(phy.Rate6Mbps)
	// Both send 20 frames back-to-back.
	for _, id := range []int{0, 2} {
		id := id
		count := 0
		recs[id].hookTx = func(frame.Frame) {
			count++
			if count < 20 {
				m.Radio(id).Transmit(dataFrame(id, 1), rate)
			}
		}
	}
	m.Radio(0).Transmit(dataFrame(0, 1), rate)
	sched.PostAfter(300*sim.Microsecond, call(func() {
		m.Radio(2).Transmit(dataFrame(2, 1), rate)
	}), nil)
	sched.RunAll()
	if got := len(recs[1].frames); got > 3 {
		t.Errorf("B decoded %d of 40 overlapping frames, want near-total loss", got)
	}
}

func TestExposedTerminalConcurrency(t *testing.T) {
	// Exposed terminals: A(0)→B(1) and C(2)→D(3); senders hear each other
	// (-65 dBm) but each cross link sender→other-receiver arrives at
	// -98 dBm: below preamble sensitivity (no false locks) yet still
	// counted as interference. Concurrent transmissions both succeed.
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 68, 75, 108},
		{68, 0, 108, offAir},
		{75, 108, 0, 68},
		{108, offAir, 68, 0},
	}))
	rate := phy.RateByID(phy.Rate6Mbps)
	m.Radio(0).Transmit(dataFrame(0, 1), rate)
	m.Radio(2).Transmit(dataFrame(2, 3), rate)
	sched.RunAll()
	if len(recs[1].frames) != 1 {
		t.Errorf("B decoded %d frames, want 1 (exposed-terminal success)", len(recs[1].frames))
	}
	if len(recs[3].frames) != 1 {
		t.Errorf("D decoded %d frames, want 1 (exposed-terminal success)", len(recs[3].frames))
	}
}

func TestRxPowerAndIsolationPRR(t *testing.T) {
	m, _, _ := testMedium(t, sym([][]float64{
		{0, 70},
		{70, 0},
	}))
	if got := m.RxPowerDBm(0, 1); math.Abs(got-(-60)) > 1e-9 {
		t.Errorf("RxPowerDBm = %v, want -60", got)
	}
	if !math.IsInf(m.RxPowerDBm(0, 0), -1) {
		t.Error("self rx power should be -inf")
	}
	want := phy.IsolationPRR(m.Params(), phy.RateByID(phy.Rate6Mbps), -60, 1424)
	if got := m.IsolationPRR(0, 1, phy.RateByID(phy.Rate6Mbps), 1424); got != want {
		t.Errorf("IsolationPRR = %v, want %v", got, want)
	}
	if m.IsolationPRR(0, 0, phy.RateByID(phy.Rate6Mbps), 1424) != 0 {
		t.Error("self PRR should be 0")
	}
}

func TestMarginalLinkLossy(t *testing.T) {
	// rx power at the PER waterfall: repeated frames should see partial loss.
	p := phy.DefaultParams()
	r := phy.RateByID(phy.Rate6Mbps)
	// Find a power with isolation PRR ≈ 0.5.
	lo, hi := p.SensitivityDBm, -60.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if phy.IsolationPRR(p, r, mid, 1424) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	power := (lo + hi) / 2
	loss := p.TxPowerDBm - power
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, loss},
		{loss, 0},
	}))
	const n = 400
	count := 0
	recs[0].hookTx = func(frame.Frame) {
		count++
		if count < n {
			// Small gap so each frame is an independent reception.
			sched.PostAfter(10*sim.Microsecond, call(func() {
				m.Radio(0).Transmit(dataFrame(0, 1), r)
			}), nil)
		}
	}
	m.Radio(0).Transmit(dataFrame(0, 1), r)
	sched.RunAll()
	got := float64(len(recs[1].frames)) / n
	if got < 0.35 || got > 0.65 {
		t.Errorf("marginal link PRR = %v, want ≈0.5", got)
	}
}

func TestTransmissionsCounter(t *testing.T) {
	m, _, sched := testMedium(t, sym([][]float64{{0, 70}, {70, 0}}))
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	if m.Transmissions != 1 {
		t.Errorf("Transmissions = %d, want 1", m.Transmissions)
	}
	if m.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", m.NodeCount())
	}
}

// seqHandler is a phy.Handler that appends each upcall of its node to a
// log the whole medium shares; onFrame, if set, runs after a decode is
// logged.
type seqHandler struct {
	node    int
	log     *[]string
	onFrame func()
}

func (h *seqHandler) add(s string) { *h.log = append(*h.log, fmt.Sprintf("%d %s", h.node, s)) }
func (h *seqHandler) OnFrame(frame.Frame, phy.RxInfo) {
	h.add("frame")
	if h.onFrame != nil {
		h.onFrame()
	}
}
func (h *seqHandler) OnCorrupt(phy.RxInfo) { h.add("corrupt") }
func (h *seqHandler) OnTxDone(frame.Frame) { h.add("txdone") }
func (h *seqHandler) OnCarrier(busy bool)  { h.add(fmt.Sprintf("carrier %v", busy)) }

// TestTxDoneFollowsReceiversPrecedesTheirEvents pins the order at a
// frame's end: every receiver's upcalls for the frame, then the sender's
// OnTxDone, then an event a receiver posted for that instant. The one
// end-of-signal event does the first two, so this is the order a
// separate tx-done event posted right after the fan-out would give.
func TestTxDoneFollowsReceiversPrecedesTheirEvents(t *testing.T) {
	sched := sim.NewScheduler()
	m := New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: [][]float64{
		{0, 70, 72},
		{70, 0, 74},
		{72, 74, 0},
	}}, make([]geo.Point, 3), sim.NewRNG(1))
	var log []string
	for i := 0; i < 3; i++ {
		h := &seqHandler{node: i, log: &log}
		if i == 1 {
			h.onFrame = func() {
				sched.Post(sched.Now(), call(func() { log = append(log, "posted") }), nil)
			}
		}
		m.Radio(i).SetHandler(h)
	}
	m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
	sched.RunAll()
	n := len(log)
	if n < 2 || log[n-2] != "0 txdone" || log[n-1] != "posted" {
		t.Fatalf("log ends %q, want the sender's tx-done and then the posted event", log)
	}
	for _, want := range []string{"1 frame", "2 frame"} {
		if !slices.Contains(log[:n-2], want) {
			t.Errorf("%q missing before the tx-done in %q", want, log)
		}
	}
}

// TestFrameIsOneAgendaEvent counts the agenda events of isolated frames
// sent with no MAC: exactly one each, so a second per-frame event (a
// separate tx-done) fails here.
func TestFrameIsOneAgendaEvent(t *testing.T) {
	m, recs, sched := testMedium(t, sym([][]float64{
		{0, 70, 72},
		{70, 0, 74},
		{72, 74, 0},
	}))
	const frames = 5
	for i := 0; i < frames; i++ {
		m.Radio(0).Transmit(dataFrame(0, 1), phy.RateByID(phy.Rate6Mbps))
		sched.RunAll()
	}
	if got := sched.Fired(); got != frames {
		t.Errorf("%d frames fired %d agenda events, want %d", frames, got, frames)
	}
	if len(recs[0].txDone) != frames || len(recs[1].frames) != frames {
		t.Errorf("sender saw %d tx-dones, receiver %d frames, want %d each", len(recs[0].txDone), len(recs[1].frames), frames)
	}
}

// TestDecodeRefusesTxDoneArg: a frame is one agenda event, so the
// separate tx-done shape ({"radio":id}) an older agenda held is an
// unknown shape, refused with an error rather than a panic.
func TestDecodeRefusesTxDoneArg(t *testing.T) {
	m, _, _ := testMedium(t, sym([][]float64{{0, 70}, {70, 0}}))
	for _, enc := range []string{`{"radio":0}`, `{}`} {
		if arg, err := m.DecodeEventArg(json.RawMessage(enc), map[uint64]*phy.Transmission{}); err == nil {
			t.Errorf("DecodeEventArg(%s) = %v, want an error", enc, arg)
		}
	}
}
