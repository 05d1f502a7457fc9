package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Checkpoint surface of the CMAP node. The structural half (config,
// radio wiring, airtime tables) is rebuilt by New on resume; this file
// captures the mutable half: sender flows and the staged virtual
// packet, receiver flows and the in-progress inbound virtual packet,
// the observation table, the defer table, interference statistics, the
// timers and the RNG stream. Struct-keyed maps (deferKey, pairKey)
// cannot be JSON object keys and the observation table's slice order
// means nothing, so each exports as a slice of
// entries in a canonical sort order — which also makes the checkpoint
// bytes themselves deterministic, independent of Go map layout.
//
// Pointer aliasing invariants the restore path must re-establish:
// n.cur is nil or &n.curBuf with cur.seqs aliasing n.seqBuf; each
// rxFlow's cur is nil or &f.curBuf with cur.got aliasing f.gotBuf; and
// agenda events carrying a *rxFlow must resolve to the same object the
// rx map holds, which is why DecodeEventArg goes through flowFor.

// addrLess orders link-layer addresses bytewise, giving every exported
// entry slice a canonical order.
func addrLess(a, b frame.Addr) bool { return bytes.Compare(a[:], b[:]) < 0 }

// txFlowState is one sender flow in checkpoint form. Slice positions in
// NodeState.Flows preserve n.flows order — the round-robin cursor
// rrNext indexes it.
type txFlowState struct {
	Dst          frame.Addr   `json:"dst"`
	DstID        int          `json:"dst_id"`
	Bcast        bool         `json:"bcast,omitempty"`
	BcastTargets []frame.Addr `json:"bcast_targets,omitempty"`
	Saturated    bool         `json:"saturated,omitempty"`
	Backlog      int          `json:"backlog,omitempty"`
	NextPktSeq   uint32       `json:"next_pkt_seq,omitempty"`
	Unacked      []uint32     `json:"unacked,omitempty"` // sorted
	Retx         []uint32     `json:"retx,omitempty"`    // consumption order
}

// rxVpktState is an in-progress inbound virtual packet.
type rxVpktState struct {
	VSeq        uint32   `json:"vseq"`
	Start       sim.Time `json:"start"`
	Expected    int      `json:"expected"`
	Got         []bool   `json:"got"`
	HeaderSeen  bool     `json:"header_seen,omitempty"`
	TrailerSeen bool     `json:"trailer_seen,omitempty"`
	Rate        uint8    `json:"rate"`
	Bcast       bool     `json:"bcast,omitempty"`
}

// rxFlowState is one receiver flow in checkpoint form.
type rxFlowState struct {
	SrcID         int            `json:"src_id"`
	SrcAddr       frame.Addr     `json:"src_addr"`
	Cum           uint32         `json:"cum,omitempty"`
	Sack          []uint32       `json:"sack,omitempty"` // sorted
	Cur           *rxVpktState   `json:"cur,omitempty"`
	FinTimer      sim.TimerState `json:"fin_timer,omitempty"`
	FinVseq       uint32         `json:"fin_vseq,omitempty"`
	PendExpected  int            `json:"pend_expected,omitempty"`
	PendLost      int            `json:"pend_lost,omitempty"`
	VpktsSeen     uint64         `json:"vpkts_seen,omitempty"`
	VpktsHeader   uint64         `json:"vpkts_header,omitempty"`
	VpktsHdrOrTrl uint64         `json:"vpkts_hdr_or_trl,omitempty"`
}

// obsEntryState is one observation-table entry (key fields inlined).
type obsEntryState struct {
	Src       frame.Addr `json:"src"`
	VSeq      uint32     `json:"vseq"`
	Dst       frame.Addr `json:"dst"`
	Rate      uint8      `json:"rate"`
	EstStart  sim.Time   `json:"est_start"`
	EstEnd    sim.Time   `json:"est_end"`
	VisibleAt sim.Time   `json:"visible_at"`
}

// deferEntryState is one defer-table entry.
type deferEntryState struct {
	OurDst   frame.Addr `json:"our_dst"`
	Src      frame.Addr `json:"src"`
	TheirDst frame.Addr `json:"their_dst"`
	Rate     uint8      `json:"rate"`
	Expiry   sim.Time   `json:"expiry"`
}

// interfStatState is one (source, interferer) loss-statistic entry.
type interfStatState struct {
	Source     frame.Addr `json:"source"`
	Interferer frame.Addr `json:"interferer"`
	Rate       uint8      `json:"rate"`
	Expected   float64    `json:"expected"`
	Lost       float64    `json:"lost"`
	LastDecay  sim.Time   `json:"last_decay"`
}

// interfererState is one live interferer-list entry.
type interfererState struct {
	Source     frame.Addr `json:"source"`
	Interferer frame.Addr `json:"interferer"`
	Rate       uint8      `json:"rate"`
	Expiry     sim.Time   `json:"expiry"`
}

// addrTimeState is one relay rate-limit entry.
type addrTimeState struct {
	Addr frame.Addr `json:"addr"`
	At   sim.Time   `json:"at"`
}

// vpktTxState is the staged outbound virtual packet. The flow it sends
// on is named by destination address and resolved through flowByDst.
type vpktTxState struct {
	FlowDst     frame.Addr `json:"flow_dst"`
	VSeq        uint32     `json:"vseq"`
	Seqs        []uint32   `json:"seqs"`
	Next        int        `json:"next"`
	TrailerSent bool       `json:"trailer_sent,omitempty"`
	IsRetx      bool       `json:"is_retx,omitempty"`
}

// ackAttemptState is a pending or in-flight cumulative-ACK attempt.
type ackAttemptState struct {
	Ack  json.RawMessage `json:"ack"`
	Left int             `json:"left"`
}

func exportAckAttempt(aa *ackAttempt) (*ackAttemptState, error) {
	enc, err := frame.MarshalState(&aa.ack)
	if err != nil {
		return nil, err
	}
	return &ackAttemptState{Ack: enc, Left: aa.left}, nil
}

func restoreAckAttempt(st *ackAttemptState, aa *ackAttempt) error {
	f, err := frame.UnmarshalState(st.Ack)
	if err != nil {
		return err
	}
	a, ok := f.(*frame.Ack)
	if !ok {
		return fmt.Errorf("core: ack attempt holds a %v frame", f.Kind())
	}
	aa.ack = *a
	aa.left = st.Left
	return nil
}

// nodeState is a core.Node in checkpoint form.
type nodeState struct {
	Obs         []obsEntryState   `json:"obs,omitempty"`
	DeferTab    []deferEntryState `json:"defer_tab,omitempty"`
	InterfStats []interfStatState `json:"interf_stats,omitempty"`
	Interferers []interfererState `json:"interferers,omitempty"`
	Rx          []rxFlowState     `json:"rx,omitempty"`
	Flows       []txFlowState     `json:"flows,omitempty"`
	RRNext      int               `json:"rr_next,omitempty"`
	NextVSeq    uint32            `json:"next_vseq,omitempty"`
	CW          sim.Time          `json:"cw,omitempty"`
	Cur         *vpktTxState      `json:"cur,omitempty"`
	WaitAck     bool              `json:"wait_ack,omitempty"`

	AckTimer     sim.TimerState `json:"ack_timer,omitempty"`
	BackoffTimer sim.TimerState `json:"backoff_timer,omitempty"`
	DeferTimer   sim.TimerState `json:"defer_timer,omitempty"`
	RetxTimer    sim.TimerState `json:"retx_timer,omitempty"`
	RetryTimer   sim.TimerState `json:"retry_timer,omitempty"`

	LastRelay   []addrTimeState  `json:"last_relay,omitempty"`
	InflightAck *ackAttemptState `json:"inflight_ack,omitempty"`
	Stat        Stats            `json:"stat"`
	RNG         uint64           `json:"rng"`
}

// sortedSeqs flattens a sequence set into sorted order.
func sortedSeqs(m map[uint32]struct{}) []uint32 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExportState implements mac.Checkpointer.
func (n *Node) ExportState() (json.RawMessage, error) {
	st := nodeState{
		RRNext:       n.rrNext,
		NextVSeq:     n.nextVSeq,
		CW:           n.cw,
		WaitAck:      n.waitAck,
		AckTimer:     n.ackTimer.State(),
		BackoffTimer: n.backoffTimer.State(),
		DeferTimer:   n.deferTimer.State(),
		RetxTimer:    n.retxTimer.State(),
		RetryTimer:   n.retryTimer.State(),
		Stat:         n.stat,
		RNG:          n.rng.State(),
	}
	for _, e := range n.obs.entries {
		st.Obs = append(st.Obs, obsEntryState{Src: e.Src, VSeq: e.VSeq, Dst: e.Dst,
			Rate: e.Rate, EstStart: e.EstStart, EstEnd: e.EstEnd, VisibleAt: e.VisibleAt})
	}
	sort.Slice(st.Obs, func(i, j int) bool {
		a, b := &st.Obs[i], &st.Obs[j]
		if a.Src != b.Src {
			return addrLess(a.Src, b.Src)
		}
		return a.VSeq < b.VSeq
	})
	for k, exp := range n.deferTab.entries {
		st.DeferTab = append(st.DeferTab, deferEntryState{OurDst: k.OurDst, Src: k.Src,
			TheirDst: k.TheirDst, Rate: k.Rate, Expiry: exp})
	}
	sort.Slice(st.DeferTab, func(i, j int) bool {
		a, b := &st.DeferTab[i], &st.DeferTab[j]
		if a.OurDst != b.OurDst {
			return addrLess(a.OurDst, b.OurDst)
		}
		if a.Src != b.Src {
			return addrLess(a.Src, b.Src)
		}
		if a.TheirDst != b.TheirDst {
			return addrLess(a.TheirDst, b.TheirDst)
		}
		return a.Rate < b.Rate
	})
	for k, s := range n.interfStats {
		st.InterfStats = append(st.InterfStats, interfStatState{Source: k.Source,
			Interferer: k.Interferer, Rate: k.Rate,
			Expected: s.Expected, Lost: s.Lost, LastDecay: s.lastDecay})
	}
	sort.Slice(st.InterfStats, func(i, j int) bool {
		a, b := &st.InterfStats[i], &st.InterfStats[j]
		if a.Source != b.Source {
			return addrLess(a.Source, b.Source)
		}
		if a.Interferer != b.Interferer {
			return addrLess(a.Interferer, b.Interferer)
		}
		return a.Rate < b.Rate
	})
	for k, exp := range n.interferers {
		st.Interferers = append(st.Interferers, interfererState{Source: k.Source,
			Interferer: k.Interferer, Rate: k.Rate, Expiry: exp})
	}
	sort.Slice(st.Interferers, func(i, j int) bool {
		a, b := &st.Interferers[i], &st.Interferers[j]
		if a.Source != b.Source {
			return addrLess(a.Source, b.Source)
		}
		if a.Interferer != b.Interferer {
			return addrLess(a.Interferer, b.Interferer)
		}
		return a.Rate < b.Rate
	})
	for _, f := range n.rx {
		fs := rxFlowState{
			SrcID: f.srcID, SrcAddr: f.srcAddr, Cum: f.cum,
			Sack:     sortedSeqs(f.sack),
			FinTimer: f.finTimer.State(), FinVseq: f.finVseq,
			PendExpected: f.pendExpected, PendLost: f.pendLost,
			VpktsSeen: f.VpktsSeen, VpktsHeader: f.VpktsHeader, VpktsHdrOrTrl: f.VpktsHdrOrTrl,
		}
		if f.cur != nil {
			fs.Cur = &rxVpktState{VSeq: f.cur.vseq, Start: f.cur.start,
				Expected: f.cur.expected, Got: append([]bool(nil), f.cur.got...),
				HeaderSeen: f.cur.headerSeen, TrailerSeen: f.cur.trailerSeen,
				Rate: f.cur.rate, Bcast: f.cur.bcast}
		}
		st.Rx = append(st.Rx, fs)
	}
	sort.Slice(st.Rx, func(i, j int) bool { return addrLess(st.Rx[i].SrcAddr, st.Rx[j].SrcAddr) })
	for _, f := range n.flows {
		st.Flows = append(st.Flows, txFlowState{
			Dst: f.dst, DstID: f.dstID, Bcast: f.bcast,
			BcastTargets: append([]frame.Addr(nil), f.bcastTargets...),
			Saturated:    f.saturated, Backlog: f.backlog,
			NextPktSeq: f.nextPktSeq,
			Unacked:    sortedSeqs(f.unacked),
			Retx:       append([]uint32(nil), f.retx...),
		})
	}
	if n.cur != nil {
		st.Cur = &vpktTxState{FlowDst: n.cur.flow.dst, VSeq: n.cur.vseq,
			Seqs: append([]uint32(nil), n.cur.seqs...), Next: n.cur.next,
			TrailerSent: n.cur.trailerSent, IsRetx: n.cur.isRetx}
	}
	for a, t := range n.lastRelay {
		st.LastRelay = append(st.LastRelay, addrTimeState{Addr: a, At: t})
	}
	sort.Slice(st.LastRelay, func(i, j int) bool { return addrLess(st.LastRelay[i].Addr, st.LastRelay[j].Addr) })
	if n.inflightAck != nil {
		aa, err := exportAckAttempt(n.inflightAck)
		if err != nil {
			return nil, fmt.Errorf("core: node %d inflight ack: %w", n.id, err)
		}
		st.InflightAck = aa
	}
	return json.Marshal(st)
}

// RestoreState implements mac.Checkpointer. It must run after the
// scheduler's RestoreState: the timer handles re-point against the
// restored slot generations, and any rxFlow objects materialised while
// decoding agenda events (DecodeEventArg goes through flowFor) are
// reused here so pointer identity between the agenda and the rx map
// holds.
func (n *Node) RestoreState(enc json.RawMessage) error {
	var st nodeState
	if err := json.Unmarshal(enc, &st); err != nil {
		return fmt.Errorf("core: node %d state: %w", n.id, err)
	}

	n.obs.entries = make([]*obsEntry, 0, len(st.Obs))
	n.obs.free = n.obs.free[:0]
	for _, e := range st.Obs {
		n.obs.entries = append(n.obs.entries, &obsEntry{
			Src: e.Src, Dst: e.Dst, Rate: e.Rate, VSeq: e.VSeq,
			EstStart: e.EstStart, EstEnd: e.EstEnd, VisibleAt: e.VisibleAt})
	}
	n.deferTab.entries = make(map[deferKey]sim.Time, len(st.DeferTab))
	for _, e := range st.DeferTab {
		n.deferTab.entries[deferKey{OurDst: e.OurDst, Src: e.Src, TheirDst: e.TheirDst, Rate: e.Rate}] = e.Expiry
	}
	n.interfStats = make(map[pairKey]*interfStat, len(st.InterfStats))
	for _, e := range st.InterfStats {
		n.interfStats[pairKey{Source: e.Source, Interferer: e.Interferer, Rate: e.Rate}] =
			&interfStat{Expected: e.Expected, Lost: e.Lost, lastDecay: e.LastDecay}
	}
	n.interferers = make(map[pairKey]sim.Time, len(st.Interferers))
	for _, e := range st.Interferers {
		n.interferers[pairKey{Source: e.Source, Interferer: e.Interferer, Rate: e.Rate}] = e.Expiry
	}

	// Receiver flows: reuse any object event decoding already created so
	// the agenda's *rxFlow arguments and the rx map stay one object.
	for _, fs := range st.Rx {
		f := n.flowFor(fs.SrcAddr, fs.SrcID)
		f.srcID = fs.SrcID
		f.cum = fs.Cum
		f.sack = make(map[uint32]struct{}, len(fs.Sack))
		for _, s := range fs.Sack {
			f.sack[s] = struct{}{}
		}
		f.cur = nil
		if fs.Cur != nil {
			f.gotBuf = append(f.gotBuf[:0], fs.Cur.Got...)
			f.curBuf = rxVpkt{vseq: fs.Cur.VSeq, start: fs.Cur.Start,
				expected: fs.Cur.Expected, got: f.gotBuf,
				headerSeen: fs.Cur.HeaderSeen, trailerSeen: fs.Cur.TrailerSeen,
				rate: fs.Cur.Rate, bcast: fs.Cur.Bcast}
			f.cur = &f.curBuf
		}
		n.sched.RestoreTimer(&f.finTimer, fs.FinTimer)
		f.finVseq = fs.FinVseq
		f.pendExpected, f.pendLost = fs.PendExpected, fs.PendLost
		f.VpktsSeen, f.VpktsHeader, f.VpktsHdrOrTrl = fs.VpktsSeen, fs.VpktsHeader, fs.VpktsHdrOrTrl
	}

	// Sender flows: rebuilt in serialized slice order (rrNext indexes
	// it). Skeleton-constructed flow objects are discarded — nothing else
	// holds a *txFlow; the staged virtual packet resolves through
	// flowByDst below.
	n.flows = n.flows[:0]
	n.flowByDst = make(map[frame.Addr]*txFlow, len(st.Flows))
	for _, fs := range st.Flows {
		f := &txFlow{dst: fs.Dst, dstID: fs.DstID, bcast: fs.Bcast,
			bcastTargets: append([]frame.Addr(nil), fs.BcastTargets...),
			saturated:    fs.Saturated, backlog: fs.Backlog,
			nextPktSeq: fs.NextPktSeq,
			unacked:    make(map[uint32]struct{}, len(fs.Unacked)),
			retx:       append([]uint32(nil), fs.Retx...)}
		for _, s := range fs.Unacked {
			f.unacked[s] = struct{}{}
		}
		n.flows = append(n.flows, f)
		n.flowByDst[f.dst] = f
	}
	n.rrNext = st.RRNext
	n.nextVSeq = st.NextVSeq
	n.cw = st.CW
	n.waitAck = st.WaitAck

	n.cur = nil
	if st.Cur != nil {
		f := n.flowByDst[st.Cur.FlowDst]
		if f == nil {
			return fmt.Errorf("core: node %d staged virtual packet names unknown flow %v", n.id, st.Cur.FlowDst)
		}
		n.seqBuf = append(n.seqBuf[:0], st.Cur.Seqs...)
		n.curBuf = vpktTx{flow: f, vseq: st.Cur.VSeq, seqs: n.seqBuf,
			next: st.Cur.Next, trailerSent: st.Cur.TrailerSent, isRetx: st.Cur.IsRetx}
		n.cur = &n.curBuf
	}

	n.sched.RestoreTimer(&n.ackTimer, st.AckTimer)
	n.sched.RestoreTimer(&n.backoffTimer, st.BackoffTimer)
	n.sched.RestoreTimer(&n.deferTimer, st.DeferTimer)
	n.sched.RestoreTimer(&n.retxTimer, st.RetxTimer)
	n.sched.RestoreTimer(&n.retryTimer, st.RetryTimer)

	n.lastRelay = nil
	if len(st.LastRelay) > 0 {
		n.lastRelay = make(map[frame.Addr]sim.Time, len(st.LastRelay))
		for _, e := range st.LastRelay {
			n.lastRelay[e.Addr] = e.At
		}
	}
	n.ackFree = n.ackFree[:0]
	n.inflightAck = nil
	if st.InflightAck != nil {
		aa := &ackAttempt{}
		if err := restoreAckAttempt(st.InflightAck, aa); err != nil {
			return fmt.Errorf("core: node %d inflight ack: %w", n.id, err)
		}
		n.inflightAck = aa
	}
	n.stat = st.Stat
	n.rng.SetState(st.RNG)
	return nil
}

// coreArg is the encoded form of one agenda event argument owned by
// this node: exactly one field group is set.
type coreArg struct {
	Ev      *int             `json:"ev,omitempty"`
	RxSrc   *frame.Addr      `json:"rx_src,omitempty"`
	RxSrcID *int             `json:"rx_src_id,omitempty"`
	Ack     *ackAttemptState `json:"ack,omitempty"`
	List    json.RawMessage  `json:"list,omitempty"`
	Budget  *int             `json:"budget,omitempty"`
}

// EncodeEventArg implements mac.Checkpointer.
func (n *Node) EncodeEventArg(arg any) (json.RawMessage, error) {
	switch v := arg.(type) {
	case macEvent:
		ev := int(v)
		return json.Marshal(coreArg{Ev: &ev})
	case *rxFlow:
		src, id := v.srcAddr, v.srcID
		return json.Marshal(coreArg{RxSrc: &src, RxSrcID: &id})
	case *ackAttempt:
		st, err := exportAckAttempt(v)
		if err != nil {
			return nil, fmt.Errorf("core: node %d pending ack: %w", n.id, err)
		}
		return json.Marshal(coreArg{Ack: st})
	case *listSend:
		enc, err := frame.MarshalState(v.list)
		if err != nil {
			return nil, fmt.Errorf("core: node %d pending list: %w", n.id, err)
		}
		budget := v.budget
		return json.Marshal(coreArg{List: enc, Budget: &budget})
	default:
		return nil, fmt.Errorf("core: node %d holds unencodable event arg %T", n.id, arg)
	}
}

// DecodeEventArg implements mac.Checkpointer. It runs during scheduler
// restore, before the node's own RestoreState: rxFlow arguments are
// materialised through flowFor so the later state restore reuses the
// same objects, and ACK/list arguments decode to fresh objects (their
// dispatch reads content, never pointer identity).
func (n *Node) DecodeEventArg(enc json.RawMessage) (any, error) {
	var a coreArg
	if err := json.Unmarshal(enc, &a); err != nil {
		return nil, fmt.Errorf("core: node %d event arg: %w", n.id, err)
	}
	switch {
	case a.Ev != nil:
		return macEvent(*a.Ev), nil
	case a.RxSrc != nil && a.RxSrcID != nil:
		return n.flowFor(*a.RxSrc, *a.RxSrcID), nil
	case a.Ack != nil:
		aa := &ackAttempt{}
		if err := restoreAckAttempt(a.Ack, aa); err != nil {
			return nil, fmt.Errorf("core: node %d pending ack: %w", n.id, err)
		}
		return aa, nil
	case a.List != nil && a.Budget != nil:
		f, err := frame.UnmarshalState(a.List)
		if err != nil {
			return nil, fmt.Errorf("core: node %d pending list: %w", n.id, err)
		}
		l, ok := f.(*frame.InterfererList)
		if !ok {
			return nil, fmt.Errorf("core: node %d pending list holds a %v frame", n.id, f.Kind())
		}
		return &listSend{list: l, budget: *a.Budget}, nil
	default:
		return nil, fmt.Errorf("core: node %d event arg matches no known shape", n.id)
	}
}
