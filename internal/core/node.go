package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// vpktTx tracks the in-progress transmission of one virtual packet.
// flow is the sender flow it serves, re-linked by Dst on restore.
type vpktTx struct {
	flow        *txFlow
	Dst         frame.Addr `json:"dst"`
	VSeq        uint32     `json:"vseq"`
	Seqs        []uint32   `json:"seqs"`
	Next        int        `json:"next"`
	TrailerSent bool       `json:"trailer_sent,omitempty"`
	IsRetx      bool       `json:"is_retx,omitempty"`
}

// txFlow is the sender-side state of one destination: its queue, sequence
// space, window and retransmission set. Plain CMAP has exactly one; the
// §3.2 per-destination-queues optimisation (Config.PerDestQueues) allows
// several, letting the sender transmit to a non-conflicting destination
// while the head-of-line one must defer.
type txFlow struct {
	Dst          frame.Addr     `json:"dst"`
	DstID        int            `json:"dst_id"`
	Bcast        bool           `json:"bcast,omitempty"`
	BcastTargets []frame.Addr   `json:"bcast_targets,omitempty"`
	Saturated    bool           `json:"saturated,omitempty"`
	Backlog      int            `json:"backlog,omitempty"`
	NextPktSeq   uint32         `json:"next_pkt_seq,omitempty"`
	Unacked      checkpoint.Set `json:"unacked"`
	Retx         []uint32       `json:"retx,omitempty"` // consumption order
}

// drained reports whether the flow has nothing queued or outstanding.
func (f *txFlow) drained() bool {
	return !f.Saturated && f.Backlog == 0 && f.Unacked.Len() == 0
}

// rxVpkt tracks the in-progress reception of one inbound virtual packet.
type rxVpkt struct {
	VSeq        uint32   `json:"vseq"`
	Start       sim.Time `json:"start"` // estimated on-air start (header start)
	Expected    int      `json:"expected"`
	Got         []bool   `json:"got"`
	HeaderSeen  bool     `json:"header_seen,omitempty"`
	TrailerSeen bool     `json:"trailer_seen,omitempty"`
	Rate        uint8    `json:"rate"`
	Bcast       bool     `json:"bcast,omitempty"`
}

// rxFlow is the receiver-side state for one sender.
type rxFlow struct {
	SrcID   int            `json:"src_id"`
	SrcAddr frame.Addr     `json:"src_addr"`
	Cum     uint32         `json:"cum,omitempty"`
	Sack    checkpoint.Set `json:"sack"`
	// Cur is nil or &curBuf. curBuf and gotBuf are the reusable storage
	// behind it: one inbound virtual packet is tracked per sender at a
	// time, so reception state needs no per-vpkt heap objects.
	Cur    *rxVpkt `json:"cur,omitempty"`
	curBuf rxVpkt
	gotBuf []bool
	// FinTimer is the caller-owned finalisation timer; FinVseq records
	// which virtual packet armed it.
	FinTimer sim.Timer `json:"fin_timer"`
	FinVseq  uint32    `json:"fin_vseq,omitempty"`
	// PendExpected and PendLost accumulate loss evidence since the last
	// ACK, so every ACK reports the loss rate "over the previous window
	// of packets" (§3.3) — including virtual packets whose own trailer
	// (and hence ACK) was destroyed.
	PendExpected int `json:"pend_expected,omitempty"`
	PendLost     int `json:"pend_lost,omitempty"`

	// Figure 16/19 counters: of the virtual packets this receiver became
	// aware of, how many had a decodable header, and how many a header or
	// trailer.
	VpktsSeen     uint64 `json:"vpkts_seen,omitempty"`
	VpktsHeader   uint64 `json:"vpkts_header,omitempty"`
	VpktsHdrOrTrl uint64 `json:"vpkts_hdr_or_trl,omitempty"`
}

// Node is one CMAP station: simultaneously a sender, a receiver, and a
// promiscuous observer that maintains its slice of the conflict map.
type Node struct {
	id    int
	cfg   Config
	radio *phy.Radio
	sched *sim.Scheduler
	addr  frame.Addr

	// Meter, when set, records non-duplicate deliveries at this node.
	Meter *stats.Meter
	// OnDeliver, when set, observes non-duplicate deliveries.
	OnDeliver mac.DeliverFunc

	// flowByDst indexes Flows by destination.
	flowByDst map[frame.Addr]*txFlow

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

	// ackFree recycles receiver-side ACK attempts.
	ackFree []*ackAttempt

	// listBuf holds the node's own interferer list while listBusy: from
	// the broadcast tick that builds it until it leaves the air or runs
	// out of retries. listRetry is its pending retry. A restored node
	// starts with the buffer free: the agenda decodes a list on the air
	// or waiting to retry into an object of its own.
	listBuf   frame.InterfererList
	listRetry listSend
	listBusy  bool

	state
}

// state is a CMAP node's mutable half and its checkpoint form (§3.1–3.3):
// the observation, defer and interference tables, receiver and sender
// flows with the staged virtual packet, the timers, counters and the RNG
// stream. Config, radio wiring and the airtime tables are rebuilt by New.
type state struct {
	Obs         observations                         `json:"obs"`
	DeferTab    deferTable                           `json:"defer_tab"`
	InterfStats checkpoint.Map[pairKey, *interfStat] `json:"interf_stats,omitempty"`
	Interferers checkpoint.Map[pairKey, sim.Time]    `json:"interferers,omitempty"`
	Rx          checkpoint.Map[frame.Addr, *rxFlow]  `json:"rx,omitempty"`

	// Sender state: one txFlow per destination (§3.2), scheduled
	// round-robin (RRNext indexes Flows) so no queue starves.
	Flows    []*txFlow `json:"flows,omitempty"`
	RRNext   int       `json:"rr_next,omitempty"`
	NextVSeq uint32    `json:"next_vseq,omitempty"`
	CW       sim.Time  `json:"cw,omitempty"`
	Cur      *vpktTx   `json:"cur,omitempty"` // nil or &curBuf, Seqs aliasing seqBuf
	WaitAck  bool      `json:"wait_ack,omitempty"`

	// The send-loop timers are caller-owned values re-armed through
	// Scheduler.ResetAfter/ResetAt, so the per-virtual-packet cycle
	// allocates no Timer handles.
	AckTimer     sim.Timer `json:"ack_timer"`
	BackoffTimer sim.Timer `json:"backoff_timer"`
	DeferTimer   sim.Timer `json:"defer_timer"`
	RetxTimer    sim.Timer `json:"retx_timer"`
	RetryTimer   sim.Timer `json:"retry_timer"`

	// LastRelay rate-limits two-hop list relays per original source.
	LastRelay checkpoint.Map[frame.Addr, sim.Time] `json:"last_relay,omitempty"`

	// InflightAck is the receiver-side ACK attempt whose frame is on the
	// air (the radio transmits at most one frame at a time), recycled at
	// tx-done.
	InflightAck *ackAttempt `json:"inflight_ack,omitempty"`

	Stat mac.Counters `json:"stat"`
	RNG  sim.RNG      `json:"rng"`
}

// newState is the state a node starts from, and what a checkpoint
// decodes into.
func newState() state {
	return state{
		DeferTab:    deferTable{Entries: make(checkpoint.Map[deferKey, sim.Time])},
		InterfStats: make(checkpoint.Map[pairKey, *interfStat]),
		Interferers: make(checkpoint.Map[pairKey, sim.Time]),
		Rx:          make(checkpoint.Map[frame.Addr, *rxFlow]),
	}
}

// New creates a CMAP node on node id of the medium.
func New(id int, cfg Config, m *medium.Medium, rng *sim.RNG) *Node {
	n := &Node{
		id:        id,
		cfg:       cfg,
		radio:     m.Radio(id),
		sched:     m.Scheduler(),
		addr:      frame.AddrFromID(id),
		flowByDst: make(map[frame.Addr]*txFlow),
		state:     newState(),
	}
	n.cfg.fillAirtimes()
	n.Obs.cfg = &n.cfg
	n.RNG = *rng
	n.radio.SetHandler(n)
	// Desynchronised periodic interferer-list broadcast.
	first := n.RNG.DurationIn(cfg.BroadcastPeriod/4, cfg.BroadcastPeriod)
	n.sched.PostAfter(first, n, evBroadcastTick)
	return n
}

// ID returns the node's medium index.
func (n *Node) ID() int { return n.id }

// Addr returns the node's link-layer address.
func (n *Node) Addr() frame.Addr { return n.addr }

// DeferTableSize returns the number of live defer-table entries.
func (n *Node) DeferTableSize() int { return n.DeferTab.live(n.sched.Now()) }

// InterfererListLen returns the number of live interferer-list entries.
func (n *Node) InterfererListLen() int {
	now := n.sched.Now()
	c := 0
	for _, exp := range n.Interferers {
		if exp > now {
			c++
		}
	}
	return c
}

// HasDeferEntry reports whether the defer table holds a live entry that
// would make sending to dst defer to src→theirDst (used by tests).
func (n *Node) HasDeferEntry(dst, src, theirDst frame.Addr, rate uint8) bool {
	return n.DeferTab.conflicts(n.sched.Now(), dst, src, theirDst, rate)
}

// FlowCounters returns the Figure 16/19 virtual-packet visibility
// counters for traffic received from node src: virtual packets this node
// became aware of, those with a decoded header, and those with a decoded
// header or trailer.
func (n *Node) FlowCounters(src int) (seen, header, headerOrTrailer uint64) {
	f, ok := n.Rx[frame.AddrFromID(src)]
	if !ok {
		return 0, 0, 0
	}
	return f.VpktsSeen, f.VpktsHeader, f.VpktsHdrOrTrl
}

// Idle reports whether the sender has nothing left to do on any flow: no
// backlog, no unacknowledged packets, nothing on the air. Saturated
// senders are never idle.
func (n *Node) Idle() bool {
	if n.Cur != nil || n.WaitAck {
		return false
	}
	for _, f := range n.Flows {
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
		return f.Backlog
	}
	return 0
}

// ReceivedFrom returns how many non-duplicate packets were delivered from
// src (0 if none).
func (n *Node) ReceivedFrom(src int) uint64 {
	f, ok := n.Rx[frame.AddrFromID(src)]
	if !ok {
		return 0
	}
	return uint64(f.Cum) + uint64(f.Sack.Len())
}

// ---------------------------------------------------------------------------
// Traffic API.

// SetSaturated makes the node a backlogged unicast source towards dst.
func (n *Node) SetSaturated(dst int) {
	f := n.flowTo(dst)
	f.Saturated = true
	n.kick()
}

// Enqueue adds count packets towards dst. Without Config.PerDestQueues
// all traffic from one node must share a destination; with it, each new
// destination gets its own queue, window and sequence space (§3.2).
func (n *Node) Enqueue(dst int, count int) {
	f := n.flowTo(dst)
	f.Backlog += count
	n.kick()
}

// SetBroadcast switches the node to broadcast (content dissemination)
// mode towards targets (§3.6): virtual packets carry the broadcast
// address, no ACKs are expected, and the defer check requires the
// transmission not to conflict with any target. Broadcast is exclusive
// with unicast flows.
func (n *Node) SetBroadcast(targets []int, saturated bool, count int) {
	if len(n.Flows) > 0 {
		panic("core: node already has a unicast flow")
	}
	f := &txFlow{
		Dst:       frame.Broadcast,
		DstID:     -1,
		Bcast:     true,
		Saturated: saturated,
		Backlog:   count,
	}
	for _, t := range targets {
		f.BcastTargets = append(f.BcastTargets, frame.AddrFromID(t))
	}
	n.Flows = append(n.Flows, f)
	n.flowByDst[f.Dst] = f
	n.kick()
}

// EnqueueBroadcast adds count packets to an existing broadcast flow
// (e.g. the next dissemination batch).
func (n *Node) EnqueueBroadcast(count int) {
	f := n.flowByDst[frame.Broadcast]
	if f == nil {
		panic("core: EnqueueBroadcast without SetBroadcast")
	}
	f.Backlog += count
	n.kick()
}

// flowTo returns (creating if allowed) the sender flow towards dst.
func (n *Node) flowTo(dst int) *txFlow {
	a := frame.AddrFromID(dst)
	if f, ok := n.flowByDst[a]; ok {
		return f
	}
	if len(n.Flows) > 0 && (!n.cfg.PerDestQueues || n.Flows[0].Bcast) {
		panic(fmt.Sprintf("core: node %d already has a flow to %v (enable PerDestQueues for multiple destinations)",
			n.id, n.Flows[0].Dst))
	}
	f := &txFlow{Dst: a, DstID: dst}
	f.Unacked.Reserve(n.cfg.windowSpan())
	n.Flows = append(n.Flows, f)
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
		n.sendListWithRetries(v.List, v.Budget)
	}
}

// ---------------------------------------------------------------------------
// phy.Handler.

// OnFrame implements phy.Handler: promiscuous processing of every
// decodable frame.
func (n *Node) OnFrame(f frame.Frame, info phy.RxInfo) {
	now := n.sched.Now()
	switch ff := f.(type) {
	case *frame.Control:
		if ff.Src == n.addr {
			return
		}
		if ff.Trailer {
			n.Stat.TrailersHeard++
			n.Obs.noteTrailer(ff, info, now)
			n.Obs.markEnded(ff.Src, ff.Seq, info.End)
			if ff.Dst == n.addr {
				n.rxTrailer(ff, info)
			}
		} else {
			n.Stat.HeadersHeard++
			n.Obs.noteHeader(ff, info, now)
			if ff.Dst == n.addr {
				n.rxHeader(ff, info)
			}
		}
	case *frame.Data:
		if ff.Src == n.addr {
			return
		}
		n.Obs.noteData(ff, info, now)
		if ff.Dst == n.addr || ff.Dst.IsBroadcast() {
			n.rxData(ff, info)
		}
	case *frame.Ack:
		if ff.Dst == n.addr {
			n.onAck(ff)
		}
	case *frame.InterfererList:
		n.Stat.ListsHeard++
		n.DeferTab.applyRules(n.addr, ff, now+DeferTimeout)
		n.maybeRelayList(ff, now)
	}
}

// maybeRelayList re-broadcasts a freshly heard interferer list once when
// the §3.1 two-hop option is enabled, rate-limited per original source.
func (n *Node) maybeRelayList(l *frame.InterfererList, now sim.Time) {
	if !n.cfg.TwoHopLists || l.Relayed || l.Src == n.addr || len(l.Entries) == 0 {
		return
	}
	if n.LastRelay == nil {
		n.LastRelay = make(map[frame.Addr]sim.Time)
	}
	if last, ok := n.LastRelay[l.Src]; ok && now-last < n.cfg.BroadcastPeriod {
		return
	}
	n.LastRelay[l.Src] = now
	copyList := &frame.InterfererList{
		Src:     l.Src,
		Relayed: true,
		Entries: append([]frame.InterferenceEntry(nil), l.Entries...),
	}
	n.Stat.ListsRelayed++
	n.sched.PostAfter(n.turnaroundDelay(), n, &listSend{List: copyList, Budget: 8})
}

// listSend carries a pending interferer-list transmission (a two-hop
// relay or a radio-busy retry) through the agenda as a typed argument,
// keeping the agenda closure-free for checkpointing.
type listSend struct {
	List   *frame.InterfererList `json:"list"`
	Budget int                   `json:"budget"`
}

// OnCorrupt implements phy.Handler. CMAP infers collisions from sequence
// gaps, not from PHY corruption events; the radio's RadioStats.Corrupted
// counts them.
func (n *Node) OnCorrupt(phy.RxInfo) {}

// OnCarrier implements phy.Handler. CMAP does not carrier sense.
func (n *Node) OnCarrier(bool) {}

// OnTxDone implements phy.Handler: drives the back-to-back virtual packet
// chain and recycles the receiver side's ACK attempt and the node's own
// interferer list once its frame has left the air (every addressee has
// decoded it by now — receptions complete before tx-done).
func (n *Node) OnTxDone(f frame.Frame) {
	switch ff := f.(type) {
	case *frame.Ack:
		if n.InflightAck != nil {
			n.ackFree = append(n.ackFree, n.InflightAck)
			n.InflightAck = nil
		}
	case *frame.InterfererList:
		if ff == &n.listBuf {
			n.listBusy = false
		}
	}
	if n.Cur != nil {
		n.continueVpkt()
	}
}
