package core

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stats counts protocol events at one CMAP node.
type Stats struct {
	VpktsSent      uint64 // virtual packets transmitted (incl. retx rounds)
	DataSent       uint64 // data packets transmitted
	Delivered      uint64 // non-duplicate data packets received for us
	Duplicates     uint64
	AcksSent       uint64
	AcksReceived   uint64
	AckWaitExpired uint64 // tackwait expiries (ACK missing/late)
	RetxTimeouts   uint64 // window-full timeouts (§3.3)
	Defers         uint64 // virtual packets deferred by the conflict map
	Backoffs       uint64 // nonzero backoff waits taken
	HeadersHeard   uint64 // overheard headers (any destination)
	TrailersHeard  uint64
	ListsSent      uint64 // interferer-list broadcasts transmitted
	ListsHeard     uint64
	ListsRelayed   uint64 // two-hop relays of other receivers' lists (§3.1)
	Corrupt        uint64 // PHY-corrupted frames observed
}

// vpktTx tracks the in-progress transmission of one virtual packet.
type vpktTx struct {
	flow        *txFlow
	vseq        uint32
	seqs        []uint32
	next        int
	trailerSent bool
	isRetx      bool
}

// txFlow is the sender-side state of one destination: its queue, sequence
// space, window and retransmission set. Plain CMAP has exactly one; the
// §3.2 per-destination-queues optimisation (Config.PerDestQueues) allows
// several, letting the sender transmit to a non-conflicting destination
// while the head-of-line one must defer.
type txFlow struct {
	dst          frame.Addr
	dstID        int
	bcast        bool
	bcastTargets []frame.Addr
	saturated    bool
	backlog      int
	nextPktSeq   uint32
	unacked      map[uint32]struct{}
	retx         []uint32
}

// drained reports whether the flow has nothing queued or outstanding.
func (f *txFlow) drained() bool {
	return !f.saturated && f.backlog == 0 && len(f.unacked) == 0
}

// rxVpkt tracks the in-progress reception of one inbound virtual packet.
type rxVpkt struct {
	vseq        uint32
	start       sim.Time // estimated on-air start (header start)
	expected    int
	got         []bool
	headerSeen  bool
	trailerSeen bool
	rate        uint8
	bcast       bool
}

// rxFlow is the receiver-side state for one sender.
type rxFlow struct {
	srcID   int
	srcAddr frame.Addr
	cum     uint32
	sack    map[uint32]struct{}
	cur     *rxVpkt
	// curBuf and gotBuf are the reusable storage behind cur: one inbound
	// virtual packet is tracked per sender at a time, so reception state
	// needs no per-vpkt heap objects. finTimer is the caller-owned
	// finalisation timer; finVseq records which virtual packet armed it.
	curBuf   rxVpkt
	gotBuf   []bool
	finTimer sim.Timer
	finVseq  uint32
	// pendExpected and pendLost accumulate loss evidence since the last
	// ACK, so every ACK reports the loss rate "over the previous window
	// of packets" (§3.3) — including virtual packets whose own trailer
	// (and hence ACK) was destroyed.
	pendExpected int
	pendLost     int

	// Figure 16/19 counters: of the virtual packets this receiver became
	// aware of, how many had a decodable header, and how many a header or
	// trailer.
	VpktsSeen     uint64
	VpktsHeader   uint64
	VpktsHdrOrTrl uint64
}

// Node is one CMAP station: simultaneously a sender, a receiver, and a
// promiscuous observer that maintains its slice of the conflict map.
type Node struct {
	id    int
	cfg   Config
	radio *phy.Radio
	sched *sim.Scheduler
	rng   *sim.RNG
	addr  frame.Addr

	// Meter, when set, records non-duplicate deliveries at this node.
	Meter *stats.Meter
	// OnDeliver, when set, observes non-duplicate deliveries.
	OnDeliver mac.DeliverFunc

	obs         *observations
	deferTab    *deferTable
	interfStats map[pairKey]*interfStat
	interferers map[pairKey]sim.Time

	rx map[frame.Addr]*rxFlow

	// Sender state: one txFlow per destination (§3.2), scheduled
	// round-robin so no queue starves.
	flows     []*txFlow
	flowByDst map[frame.Addr]*txFlow
	rrNext    int
	nextVSeq  uint32
	cw        sim.Time
	cur       *vpktTx
	waitAck   bool

	// The send-loop timers are caller-owned values re-armed through
	// Scheduler.ResetAfter/ResetAt, so the per-virtual-packet cycle
	// allocates no Timer handles.
	ackTimer     sim.Timer
	backoffTimer sim.Timer
	deferTimer   sim.Timer
	retxTimer    sim.Timer
	retryTimer   sim.Timer

	// lastRelay rate-limits two-hop list relays per original source.
	lastRelay map[frame.Addr]sim.Time

	// Reusable buffers for the steady-state virtual-packet pipeline: one
	// virtual packet is in flight per sender and the medium completes all
	// receptions of a frame before its tx-done, so the staged vpktTx, the
	// header/trailer/data frames, the candidate sequence list and the
	// defer-check target list can all live in embedded storage instead of
	// fresh heap objects per frame.
	seqBuf  []uint32
	curBuf  vpktTx
	hdrBuf  frame.Control
	trlBuf  frame.Control
	dataBuf frame.Data
	targBuf [1]frame.Addr

	// ackFree recycles receiver-side ACK attempts; inflightAck is the one
	// whose frame is currently on the air (the radio transmits at most one
	// frame at a time), recycled at tx-done.
	ackFree     []*ackAttempt
	inflightAck *ackAttempt

	stat Stats
}

// New creates a CMAP node on network node id.
func New(id int, cfg Config, m mac.Network, rng *sim.RNG) *Node {
	n := &Node{
		id:          id,
		cfg:         cfg,
		radio:       m.Radio(id),
		sched:       m.Scheduler(),
		rng:         rng,
		addr:        frame.AddrFromID(id),
		obs:         newObservations(cfg),
		deferTab:    newDeferTable(),
		interfStats: make(map[pairKey]*interfStat),
		interferers: make(map[pairKey]sim.Time),
		rx:          make(map[frame.Addr]*rxFlow),
		flowByDst:   make(map[frame.Addr]*txFlow),
	}
	n.radio.SetHandler(n)
	// Desynchronised periodic interferer-list broadcast.
	first := rng.DurationIn(cfg.BroadcastPeriod/4, cfg.BroadcastPeriod)
	n.sched.PostAfter(first, n, evBroadcastTick)
	return n
}

// ID returns the node's medium index.
func (n *Node) ID() int { return n.id }

// Addr returns the node's link-layer address.
func (n *Node) Addr() frame.Addr { return n.addr }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return n.stat }

// DeferTableSize returns the number of live defer-table entries.
func (n *Node) DeferTableSize() int { return n.deferTab.size() }

// InterfererListLen returns the number of live interferer-list entries.
func (n *Node) InterfererListLen() int {
	now := n.sched.Now()
	c := 0
	for _, exp := range n.interferers {
		if exp > now {
			c++
		}
	}
	return c
}

// HasDeferEntry reports whether the defer table holds a live entry that
// would make sending to dst defer to src→theirDst (used by tests).
func (n *Node) HasDeferEntry(dst, src, theirDst frame.Addr, rate uint8) bool {
	return n.deferTab.conflicts(n.sched.Now(), dst, src, theirDst, rate)
}

// FlowCounters returns the Figure 16/19 virtual-packet visibility
// counters for traffic received from node src: virtual packets this node
// became aware of, those with a decoded header, and those with a decoded
// header or trailer.
func (n *Node) FlowCounters(src int) (seen, header, headerOrTrailer uint64) {
	f, ok := n.rx[frame.AddrFromID(src)]
	if !ok {
		return 0, 0, 0
	}
	return f.VpktsSeen, f.VpktsHeader, f.VpktsHdrOrTrl
}

// Idle reports whether the sender has nothing left to do on any flow: no
// backlog, no unacknowledged packets, nothing on the air. Saturated
// senders are never idle.
func (n *Node) Idle() bool {
	if n.cur != nil || n.waitAck {
		return false
	}
	for _, f := range n.flows {
		if !f.drained() {
			return false
		}
	}
	return true
}

// Backlog returns how many enqueued packets towards dst have not yet
// been consumed into virtual packets. Together with Enqueue it makes
// the node a traffic.Enqueuer, so arrival processes can enforce finite
// queue bounds. Saturated flows report 0 (their backlog is notional).
func (n *Node) Backlog(dst int) int {
	if f, ok := n.flowByDst[frame.AddrFromID(dst)]; ok {
		return f.backlog
	}
	return 0
}

// ReceivedFrom returns how many non-duplicate packets were delivered from
// src (0 if none).
func (n *Node) ReceivedFrom(src int) uint64 {
	f, ok := n.rx[frame.AddrFromID(src)]
	if !ok {
		return 0
	}
	return uint64(f.cum) + uint64(len(f.sack))
}

// ---------------------------------------------------------------------------
// Traffic API.

// SetSaturated makes the node a backlogged unicast source towards dst.
func (n *Node) SetSaturated(dst int) {
	f := n.flowTo(dst)
	f.saturated = true
	n.kick()
}

// Enqueue adds count packets towards dst. Without Config.PerDestQueues
// all traffic from one node must share a destination; with it, each new
// destination gets its own queue, window and sequence space (§3.2).
func (n *Node) Enqueue(dst int, count int) {
	f := n.flowTo(dst)
	f.backlog += count
	n.kick()
}

// SetBroadcast switches the node to broadcast (content dissemination)
// mode towards targets (§3.6): virtual packets carry the broadcast
// address, no ACKs are expected, and the defer check requires the
// transmission not to conflict with any target. Broadcast is exclusive
// with unicast flows.
func (n *Node) SetBroadcast(targets []int, saturated bool, count int) {
	if len(n.flows) > 0 {
		panic("core: node already has a unicast flow")
	}
	f := &txFlow{
		dst:       frame.Broadcast,
		dstID:     -1,
		bcast:     true,
		saturated: saturated,
		backlog:   count,
		unacked:   make(map[uint32]struct{}),
	}
	for _, t := range targets {
		f.bcastTargets = append(f.bcastTargets, frame.AddrFromID(t))
	}
	n.flows = append(n.flows, f)
	n.flowByDst[f.dst] = f
	n.kick()
}

// EnqueueBroadcast adds count packets to an existing broadcast flow
// (e.g. the next dissemination batch).
func (n *Node) EnqueueBroadcast(count int) {
	f := n.flowByDst[frame.Broadcast]
	if f == nil {
		panic("core: EnqueueBroadcast without SetBroadcast")
	}
	f.backlog += count
	n.kick()
}

// flowTo returns (creating if allowed) the sender flow towards dst.
func (n *Node) flowTo(dst int) *txFlow {
	a := frame.AddrFromID(dst)
	if f, ok := n.flowByDst[a]; ok {
		return f
	}
	if len(n.flows) > 0 && (!n.cfg.PerDestQueues || n.flows[0].bcast) {
		panic(fmt.Sprintf("core: node %d already has a flow to %v (enable PerDestQueues for multiple destinations)",
			n.id, n.flows[0].dst))
	}
	f := &txFlow{dst: a, dstID: dst, unacked: make(map[uint32]struct{})}
	n.flows = append(n.flows, f)
	n.flowByDst[a] = f
	return f
}

func (n *Node) kick() { n.trySend() }

// macEvent enumerates the node's fixed timer callbacks, dispatched
// through HandleEvent so the per-virtual-packet timers (backoff, defer
// re-check, ACK wait, retransmission, radio-busy retry) need no closure
// allocations.
type macEvent int

const (
	evTrySend macEvent = iota
	evRetry
	evDefer
	evBackoff
	evAckWait
	evRetxTimeout
	evBroadcastTick
)

// HandleEvent implements sim.EventHandler: fixed timer callbacks arrive
// as macEvent kinds; the receiver side's virtual-packet finalisation
// timer carries its rxFlow, and deferred ACK transmissions their pooled
// attempt, so neither needs a closure allocation.
func (n *Node) HandleEvent(arg any) {
	switch v := arg.(type) {
	case macEvent:
		switch v {
		case evTrySend, evRetry, evDefer, evBackoff:
			n.trySend()
		case evAckWait:
			n.ackWaitExpired()
		case evRetxTimeout:
			n.retxTimedOut()
		case evBroadcastTick:
			n.broadcastTick()
		}
	case *rxFlow:
		n.vpktFinExpired(v)
	case *ackAttempt:
		n.runAckAttempt(v)
	case *listSend:
		n.sendListWithRetries(v.list, v.budget)
	}
}

// ---------------------------------------------------------------------------
// phy.Handler.

// OnFrame implements phy.Handler: promiscuous processing of every
// decodable frame.
func (n *Node) OnFrame(f frame.Frame, info phy.RxInfo) {
	now := n.sched.Now()
	visible := now + n.cfg.Turnaround
	switch ff := f.(type) {
	case *frame.Control:
		if ff.Src == n.addr {
			return
		}
		if ff.Trailer {
			n.stat.TrailersHeard++
			n.obs.noteTrailer(ff, info, visible)
			n.obs.markEnded(ff.Src, ff.Seq, info.End)
			if ff.Dst == n.addr {
				n.rxTrailer(ff, info)
			}
		} else {
			n.stat.HeadersHeard++
			n.obs.noteHeader(ff, info, visible)
			if ff.Dst == n.addr {
				n.rxHeader(ff, info)
			}
		}
	case *frame.Data:
		if ff.Src == n.addr {
			return
		}
		n.obs.noteData(ff, info, visible)
		if ff.Dst == n.addr || ff.Dst.IsBroadcast() {
			n.rxData(ff, info)
		}
	case *frame.Ack:
		if ff.Dst == n.addr {
			n.onAck(ff)
		}
	case *frame.InterfererList:
		n.stat.ListsHeard++
		n.deferTab.applyRules(n.addr, ff, now+n.cfg.DeferTimeout)
		n.maybeRelayList(ff, now)
	}
}

// maybeRelayList re-broadcasts a freshly heard interferer list once when
// the §3.1 two-hop option is enabled, rate-limited per original source.
func (n *Node) maybeRelayList(l *frame.InterfererList, now sim.Time) {
	if !n.cfg.TwoHopLists || l.Relayed || l.Src == n.addr || len(l.Entries) == 0 {
		return
	}
	if n.lastRelay == nil {
		n.lastRelay = make(map[frame.Addr]sim.Time)
	}
	if last, ok := n.lastRelay[l.Src]; ok && now-last < n.cfg.BroadcastPeriod {
		return
	}
	n.lastRelay[l.Src] = now
	copyList := &frame.InterfererList{
		Src:     l.Src,
		Relayed: true,
		Entries: append([]frame.InterferenceEntry(nil), l.Entries...),
	}
	n.stat.ListsRelayed++
	n.sched.PostAfter(n.turnaroundDelay(), n, &listSend{list: copyList, budget: 8})
}

// listSend carries a pending interferer-list transmission (a two-hop
// relay or a radio-busy retry) through the agenda as a typed argument,
// keeping the agenda closure-free for checkpointing.
type listSend struct {
	list   *frame.InterfererList
	budget int
}

// OnCorrupt implements phy.Handler. CMAP infers collisions from sequence
// gaps, not from PHY corruption events, but counts them for diagnostics.
func (n *Node) OnCorrupt(phy.RxInfo) { n.stat.Corrupt++ }

// OnCarrier implements phy.Handler. CMAP does not carrier sense.
func (n *Node) OnCarrier(bool) {}

// OnTxDone implements phy.Handler: drives the back-to-back virtual packet
// chain and recycles the receiver side's ACK attempt once its frame has
// left the air (every addressee has decoded it by now — receptions
// complete before tx-done).
func (n *Node) OnTxDone(f frame.Frame) {
	if _, ok := f.(*frame.Ack); ok && n.inflightAck != nil {
		n.ackFree = append(n.ackFree, n.inflightAck)
		n.inflightAck = nil
	}
	if n.cur != nil {
		n.continueVpkt()
	}
}
