package csma

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// 802.11a's DCF constants. No arm varies them, and the analytic oracle
// reads these same values.
const (
	// CWMin and CWMax bound the contention window in slots.
	CWMin = 15
	CWMax = 1023
	// RetryLimit caps retransmissions of one packet.
	RetryLimit = 7
	// ControlRate carries ACK, RTS and CTS frames (802.11 sends them at
	// a basic rate).
	ControlRate = phy.Rate6Mbps
)

// Config selects the baseline's behaviour.
type Config struct {
	// CarrierSense enables physical carrier sense ("CS on"). When false
	// the node transmits after its interframe spacing and backoff without
	// consulting the medium ("CS off").
	CarrierSense bool
	// LinkACKs enables stop-and-wait ACKs and retransmission. When false
	// packets are sent exactly once ("no acks").
	LinkACKs bool
	// Rate is the data bit-rate.
	Rate phy.RateID
	// PayloadBytes is the application payload per packet.
	PayloadBytes int
	// CSThresholdDBm, when non-zero, overrides this node's carrier-sense
	// threshold away from the medium-wide default — the knob the
	// cs@<dBm> arm family sweeps to trade exposed-terminal concurrency
	// against hidden-terminal collisions.
	CSThresholdDBm float64
	// RTSCTS enables the RTS/CTS handshake with NAV-based virtual
	// carrier sense before every unicast data frame; broadcasts bypass
	// the handshake and follow plain DCF.
	RTSCTS bool
}

// DefaultConfig returns the 802.11a defaults used throughout the
// evaluation: carrier sense on, ACKs on, 6 Mb/s, mac.DefaultPayload.
func DefaultConfig() Config {
	return Config{
		CarrierSense: true,
		LinkACKs:     true,
		Rate:         phy.Rate6Mbps,
		PayloadBytes: mac.DefaultPayload,
	}
}

// Node is one 802.11 DCF station. Create it with New, point traffic at it
// with SetSaturated or Enqueue, then run the scheduler.
type Node struct {
	id    int
	cfg   Config
	radio *phy.Radio
	sched *sim.Scheduler
	addr  frame.Addr

	// Meter, when set, records non-duplicate deliveries at this node.
	Meter *stats.Meter
	// OnDeliver, when set, observes non-duplicate deliveries (used to
	// chain mesh forwarding).
	OnDeliver mac.DeliverFunc

	// ACK and CTS responses recycle through free lists: by the time one
	// is reused every receiver of the previous frame has finished with it
	// (the medium completes all receptions before the sender's tx-done),
	// so the steady-state frame path allocates nothing.
	ackFree []*frame.Dot11Ack
	ctsFree []*frame.Dot11CTS

	state
}

// state is a station's mutable half and its checkpoint form: the
// sender's staged packet and access countdown, the receiver's dedup
// cache, the NAV, the timers, counters and the RNG stream. Everything
// reachable from Config is structural — the resumer reconstructs the
// station through arm.New with the same config.
type state struct {
	Saturated bool  `json:"saturated,omitempty"`
	SatDst    int   `json:"sat_dst,omitempty"`
	Queue     []int `json:"queue,omitempty"` // destination per queued packet
	// Pending reports that DataBuf holds a staged packet. The staged
	// frame lives in that embedded buffer — stop-and-wait keeps one packet
	// in flight, and by the time the next is staged every receiver of the
	// previous frame has finished with it.
	Pending bool            `json:"has_pending,omitempty"`
	DataBuf frame.Dot11Data `json:"data_buf"`
	PendDst int             `json:"pend_dst,omitempty"`
	TxSeq   uint16          `json:"tx_seq,omitempty"` // next data sequence number, one per staged packet
	Retries int             `json:"retries,omitempty"`
	CW      int             `json:"cw"`
	Backoff int             `json:"backoff,omitempty"` // remaining backoff slots
	WantsTx bool            `json:"wants_tx,omitempty"`
	WaitAck bool            `json:"wait_ack,omitempty"`

	// CountdownStart is when the running backoff countdown began; on a
	// carrier-busy freeze the fully elapsed slots since then are deducted.
	CountdownStart sim.Time `json:"countdown_start,omitempty"`

	// The per-frame timers are caller-owned values re-armed through
	// Scheduler.ResetAfter, so steady-state access cycles allocate no
	// Timer handles.
	DIFSTimer    sim.Timer `json:"difs_timer"`
	BackoffTimer sim.Timer `json:"backoff_timer"`
	AckTimer     sim.Timer `json:"ack_timer"`
	CtsTimer     sim.Timer `json:"cts_timer"`
	NavTimer     sim.Timer `json:"nav_timer"`

	// RTS/CTS virtual-carrier-sense state: the network-allocation-vector
	// deadline learned from overheard RTS/CTS reservations, and whether
	// we are between our own RTS and the answering CTS.
	NavUntil sim.Time       `json:"nav_until,omitempty"`
	WaitCts  bool           `json:"wait_cts,omitempty"`
	RtsBuf   frame.Dot11RTS `json:"rts_buf"`

	// Receiver state: last delivered seq per source, present once a
	// source has delivered anything. Stop-and-wait means a duplicate can
	// only be a retransmission of the most recent packet, which is how
	// 802.11's dedup cache works and keeps seq wrap safe.
	LastSeq map[int]uint16 `json:"last_seq"`

	Stat mac.Counters `json:"stat"`
	RNG  sim.RNG      `json:"rng"`
}

// newState is the state a station starts from, and what a checkpoint
// decodes into.
func newState() state {
	return state{CW: CWMin, LastSeq: make(map[int]uint16)}
}

// New creates a DCF node on node id of the medium.
func New(id int, cfg Config, m *medium.Medium, rng *sim.RNG) *Node {
	n := &Node{
		id:    id,
		cfg:   cfg,
		radio: m.Radio(id),
		sched: m.Scheduler(),
		addr:  frame.AddrFromID(id),
		state: newState(),
	}
	n.RNG = *rng
	n.radio.SetHandler(n)
	if cfg.CSThresholdDBm != 0 {
		n.radio.SetCSThresholdDBm(cfg.CSThresholdDBm)
	}
	return n
}

// ID returns the node's medium index.
func (n *Node) ID() int { return n.id }

// BroadcastDst is the pseudo-destination for 802.11 broadcast frames:
// they carry the broadcast address and are never ACKed or retried.
const BroadcastDst = -1

// macEvent enumerates the node's fixed timer callbacks, dispatched
// through HandleEvent so the per-frame DIFS/slot/ACK events need no
// closure allocations.
type macEvent int

const (
	evDIFS macEvent = iota
	evBackoff
	evAckTimeout
	evBeginAccess
	evCtsTimeout
	evNavClear
	evSendData
)

// HandleEvent implements sim.EventHandler: fixed timer callbacks arrive
// as macEvent kinds, deferred ACK transmissions as the ACK frame itself.
func (n *Node) HandleEvent(arg any) {
	switch v := arg.(type) {
	case macEvent:
		switch v {
		case evDIFS:
			n.difsElapsed()
		case evBackoff:
			n.backoffElapsed()
		case evAckTimeout:
			n.ackTimedOut()
		case evBeginAccess:
			n.beginAccess()
		case evCtsTimeout:
			n.ctsTimedOut()
		case evNavClear:
			n.navCleared()
		case evSendData:
			n.sendDataAfterCts()
		}
	case *frame.Dot11Ack:
		n.sendAck(v)
	case *frame.Dot11CTS:
		n.sendCts(v)
	}
}

// SetSaturated makes the node a backlogged source towards dst (or
// BroadcastDst): it always has the next packet ready, the paper's
// traffic model.
func (n *Node) SetSaturated(dst int) {
	n.Saturated = true
	n.SatDst = dst
	n.kick()
}

// Enqueue adds count packets destined to dst.
func (n *Node) Enqueue(dst int, count int) {
	for i := 0; i < count; i++ {
		n.Queue = append(n.Queue, dst)
	}
	n.kick()
}

// QueueLen returns the number of queued (not yet attempted) packets.
func (n *Node) QueueLen() int { return len(n.Queue) }

// Backlog returns how many queued packets are destined to dst. Together
// with Enqueue it makes the node a traffic.Enqueuer, so arrival
// processes can enforce finite queue bounds.
func (n *Node) Backlog(dst int) int {
	c := 0
	for _, d := range n.Queue {
		if d == dst {
			c++
		}
	}
	return c
}

// Idle reports whether the sender has nothing left to do. Saturated
// senders are never idle.
func (n *Node) Idle() bool {
	if n.Saturated {
		return false
	}
	return !n.Pending && len(n.Queue) == 0 && !n.WaitAck
}

// kick starts channel access if there is work and the node is idle.
func (n *Node) kick() {
	if n.Pending || n.WaitAck {
		return
	}
	if !n.makeNext() {
		return
	}
	n.drawBackoff()
	n.beginAccess()
}

// makeNext stages the next packet. It reports false if there is nothing
// to send.
func (n *Node) makeNext() bool {
	dst := -1
	switch {
	case len(n.Queue) > 0:
		dst = n.Queue[0]
		n.Queue = n.Queue[1:]
	case n.Saturated:
		dst = n.SatDst
	default:
		return false
	}
	n.PendDst = dst
	da := frame.Broadcast
	if dst != BroadcastDst {
		da = frame.AddrFromID(dst)
	}
	// Sequence numbers are consecutive per staged packet (retries keep
	// theirs), so the k-th packet a flow accepts carries sequence k mod
	// 2¹⁶ — the invariant traffic sources use to map a delivered frame
	// back to its arrival time. Stop-and-wait dedup only ever compares
	// against the immediately preceding packet, so consecutive values
	// are as collision-safe as the attempt-counter scheme they replace.
	n.DataBuf = frame.Dot11Data{
		Src:        n.addr,
		Dst:        da,
		Seq:        n.TxSeq,
		PayloadLen: uint16(n.cfg.PayloadBytes),
	}
	n.Pending = true
	n.TxSeq++
	n.Retries = 0
	return true
}

// drawBackoff picks a fresh backoff from the current contention window.
func (n *Node) drawBackoff() {
	n.Backoff = n.RNG.Intn(n.CW + 1)
}

// beginAccess starts the DIFS + backoff procedure for the staged packet.
func (n *Node) beginAccess() {
	if !n.Pending {
		return
	}
	n.WantsTx = true
	if n.navBusy() {
		n.armNavTimer()
		return // resume when the NAV reservation clears
	}
	if n.cfg.CarrierSense && n.radio.CarrierBusy() {
		return // resume on the idle edge
	}
	n.startDIFS()
}

func (n *Node) startDIFS() {
	n.stopAccessTimers()
	n.sched.ResetAfter(&n.DIFSTimer, phy.DIFS, n, evDIFS)
}

func (n *Node) difsElapsed() {
	n.countdown()
}

// countdown runs the remaining backoff down as ONE timer covering all
// remaining slots, not one event per slot: between carrier edges the
// channel state cannot change, so the countdown either runs to
// completion untouched (the transmission still starts at exactly
// countdownStart + backoff·SlotTime) or is frozen by a busy edge — at
// which point the fully elapsed slots are deducted. A busy edge landing
// exactly ON a slot boundary counts that slot as elapsed (it was idle
// throughout); the per-slot scheme this replaces could resolve such
// ties either way depending on event seq order, so the collapse is
// DCF-equivalent but not tie-for-tie identical — one of the reasons the
// golden traces were regenerated for this change. With carrier sense
// the timer is cancelled on busy edges and the countdown resumes after
// the next idle DIFS, freezing the remaining slots as DCF specifies.
func (n *Node) countdown() {
	if n.Backoff <= 0 {
		n.transmitData()
		return
	}
	n.CountdownStart = n.sched.Now()
	n.sched.ResetAfter(&n.BackoffTimer, sim.Time(n.Backoff)*phy.SlotTime, n, evBackoff)
}

func (n *Node) backoffElapsed() {
	n.Backoff = 0
	n.transmitData()
}

func (n *Node) stopAccessTimers() {
	n.DIFSTimer.Stop()
	if n.BackoffTimer.Stop() {
		n.Backoff -= int((n.sched.Now() - n.CountdownStart) / phy.SlotTime)
		if n.Backoff < 0 {
			n.Backoff = 0
		}
	}
}

func (n *Node) transmitData() {
	n.WantsTx = false
	if n.radio.Transmitting() {
		// An ACK we owed someone is on the air; retry shortly.
		n.sched.PostAfter(phy.SlotTime, n, evBeginAccess)
		return
	}
	if n.useRTS() {
		n.transmitRTS()
		return
	}
	n.Stat.Sent++
	n.radio.Transmit(&n.DataBuf, phy.RateByID(n.cfg.Rate))
}

// ackTimeout is how long a sender waits for the stop-and-wait ACK.
func (n *Node) ackTimeout() sim.Time {
	ackAir := phy.Airtime(phy.RateByID(ControlRate), (&frame.Dot11Ack{}).WireSize())
	return phy.SIFS + ackAir + 2*phy.SlotTime
}

// OnTxDone implements phy.Handler.
func (n *Node) OnTxDone(f frame.Frame) {
	switch ff := f.(type) {
	case *frame.Dot11Data:
		if n.cfg.LinkACKs && !ff.Dst.IsBroadcast() {
			n.WaitAck = true
			n.sched.ResetAfter(&n.AckTimer, n.ackTimeout(), n, evAckTimeout)
			return
		}
		// Broadcast or fire-and-forget: next packet immediately.
		n.Pending = false
		n.CW = CWMin
		if n.makeNext() {
			n.drawBackoff()
			n.beginAccess()
		}
	case *frame.Dot11Ack:
		// Receiver side: every addressee has decoded the ACK by now
		// (receptions complete before tx-done), so recycle its buffer.
		n.ackFree = append(n.ackFree, ff)
	case *frame.Dot11RTS:
		n.rtsSent()
	case *frame.Dot11CTS:
		n.ctsFree = append(n.ctsFree, ff)
	}
}

func (n *Node) ackTimedOut() {
	n.WaitAck = false
	n.Stat.AckTimeouts++
	// Marking the staged frame is harmless if it is then dropped:
	// makeNext rewrites DataBuf before the next packet goes out.
	n.DataBuf.Retry = true
	n.retryOrDrop()
}

// retryOrDrop ends a failed attempt (a missing ACK or CTS): at the
// retry limit drop the packet and stage the next, else grow the window
// and contend again.
func (n *Node) retryOrDrop() {
	n.Retries++
	if n.Retries > RetryLimit {
		n.Stat.Dropped++
		n.Pending = false
		n.CW = CWMin
		if n.makeNext() {
			n.drawBackoff()
			n.beginAccess()
		}
		return
	}
	if n.CW < CWMax {
		n.CW = min(2*n.CW+1, CWMax)
	}
	n.drawBackoff()
	n.beginAccess()
}

// OnFrame implements phy.Handler.
func (n *Node) OnFrame(f frame.Frame, info phy.RxInfo) {
	switch ff := f.(type) {
	case *frame.Dot11Data:
		if ff.Dst != n.addr && !ff.Dst.IsBroadcast() {
			return
		}
		if s, ok := n.LastSeq[info.From]; ok && s == ff.Seq {
			n.Stat.Duplicates++
		} else {
			n.LastSeq[info.From] = ff.Seq
			n.Stat.Delivered++
			if n.Meter != nil {
				n.Meter.Record(n.sched.Now(), int(ff.PayloadLen))
			}
			if n.OnDeliver != nil {
				n.OnDeliver(info.From, uint32(ff.Seq), n.sched.Now())
			}
		}
		if n.cfg.LinkACKs && !ff.Dst.IsBroadcast() {
			ack := n.getAck()
			ack.Dst, ack.Seq = ff.Src, ff.Seq
			n.sched.PostAfter(phy.SIFS, n, ack)
		}
	case *frame.Dot11Ack:
		if ff.Dst != n.addr || !n.WaitAck || !n.Pending {
			return
		}
		if ff.Seq != n.DataBuf.Seq {
			return
		}
		n.AckTimer.Stop()
		n.WaitAck = false
		n.Pending = false
		n.Retries = 0
		n.CW = CWMin
		if n.makeNext() {
			n.drawBackoff()
			n.beginAccess()
		}
	case *frame.Dot11RTS:
		n.onRTS(ff)
	case *frame.Dot11CTS:
		n.onCTS(ff)
	}
}

// sendAck transmits a deferred stop-and-wait ACK (scheduled SIFS after
// the data frame), unless our own frame is on the air — then the sender
// times out and retries.
func (n *Node) sendAck(ack *frame.Dot11Ack) {
	if n.radio.Transmitting() {
		n.ackFree = append(n.ackFree, ack)
		return
	}
	n.Stat.AcksSent++
	n.radio.Transmit(ack, phy.RateByID(ControlRate))
}

// getAck pops a recycled ACK buffer (refilled at OnTxDone).
func (n *Node) getAck() *frame.Dot11Ack {
	if k := len(n.ackFree); k > 0 {
		a := n.ackFree[k-1]
		n.ackFree = n.ackFree[:k-1]
		return a
	}
	return &frame.Dot11Ack{}
}

// OnCorrupt implements phy.Handler. DCF learns nothing from corrupted
// frames beyond the carrier-sense busy period it already observed.
func (n *Node) OnCorrupt(phy.RxInfo) {}

// OnCarrier implements phy.Handler: freeze/resume the access procedure.
func (n *Node) OnCarrier(busy bool) {
	if !n.cfg.CarrierSense {
		return
	}
	if busy {
		n.stopAccessTimers()
		return
	}
	if n.WantsTx && n.Pending && !n.WaitAck {
		if n.navBusy() {
			n.armNavTimer()
			return
		}
		n.startDIFS()
	}
}
