package core

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// trySend is the entry point of the Figure 6 send loop. It is re-entered
// from every timer (backoff, defer re-check, ACK wait, retransmission
// timeout) and bails out unless the sender is genuinely idle. Flows are
// scanned round-robin: if the head destination must defer but another
// has no conflict, the other is served — the §3.2 per-destination-queue
// optimisation (with one flow this degenerates to the plain algorithm).
func (n *Node) trySend() {
	if len(n.Flows) == 0 || n.Cur != nil || n.WaitAck {
		return
	}
	if n.BackoffTimer.Active() || n.DeferTimer.Active() || n.RetryTimer.Active() {
		return
	}
	if n.radio.Transmitting() {
		// An ACK or interferer list of ours is on the air; come back.
		n.sched.ResetAfter(&n.RetryTimer, 200*sim.Microsecond, n, evRetry)
		return
	}
	now := n.sched.Now()
	n.DeferTab.prune(now)

	var earliestEnd sim.Time
	conflicted := false
	sendable := false
	totalUnacked := 0
	for _, f := range n.Flows {
		totalUnacked += f.Unacked.Len()
	}
	start := n.RRNext
	for k := 0; k < len(n.Flows); k++ {
		f := n.Flows[(start+k)%len(n.Flows)]
		seqs, isRetx := n.candidate(f)
		if len(seqs) == 0 {
			continue
		}
		sendable = true
		// The transmission decision process (§3.2), once per virtual
		// packet.
		if end, conflict := n.deferConflictEnd(now, f); conflict {
			conflicted = true
			if earliestEnd == 0 || end < earliestEnd {
				earliestEnd = end
			}
			continue // try the next destination's queue
		}
		n.RRNext = (start + k + 1) % len(n.Flows)
		n.startVpkt(f, seqs, isRetx)
		return
	}

	switch {
	case conflicted:
		// Every sendable flow conflicts: wait until the earliest
		// conflicting transmission ends plus tdeferwait, then check
		// again. The re-check carries the software MAC's scheduling slop
		// (§4.1).
		n.Stat.Defers++
		wait := earliestEnd + TdeferWait + n.RNG.DurationIn(0, Turnaround)
		if wait <= now {
			wait = now + TdeferWait
		}
		n.sched.ResetAt(&n.DeferTimer, wait, n, evDefer)
	case !sendable && totalUnacked > 0 && !n.RetxTimer.Active():
		// Nothing sendable but packets are stuck unacknowledged: arm the
		// retransmission timeout (§3.3). The paper sizes τmax as the
		// airtime of a full window so a transmission interfering at the
		// destination can complete; we apply the same rationale to the
		// actual outstanding amount, which reduces to the paper's choice
		// exactly when the window is full and keeps finite-batch tails
		// from waiting out a full-window timeout.
		tauMin, tauMax := n.cfg.tauBounds()
		scaled := sim.Time(totalUnacked)*n.cfg.dataAirtime() + n.cfg.vpktAirtime(n.cfg.Nvpkt)
		if scaled < tauMax {
			tauMax = scaled
		}
		if tauMin > tauMax/2 {
			tauMin = tauMax / 2
		}
		n.sched.ResetAfter(&n.RetxTimer, n.RNG.DurationIn(tauMin, tauMax), n, evRetxTimeout)
	}
}

// candidate picks the data packets for flow f's next virtual packet:
// pending retransmissions first, else fresh packets if the window has
// room. It does not consume anything; startVpkt does.
func (n *Node) candidate(f *txFlow) ([]uint32, bool) {
	// Drop retransmission candidates acknowledged in the meantime.
	live := f.Retx[:0]
	for _, s := range f.Retx {
		if f.Unacked.Has(s) {
			live = append(live, s)
		}
	}
	f.Retx = live
	if len(f.Retx) > 0 {
		k := len(f.Retx)
		if k > n.cfg.Nvpkt {
			k = n.cfg.Nvpkt
		}
		return f.Retx[:k], true
	}
	avail := f.Backlog
	if f.Saturated {
		avail = n.cfg.Nvpkt
	}
	if avail > n.cfg.Nvpkt {
		avail = n.cfg.Nvpkt
	}
	if avail == 0 {
		return nil, false
	}
	if !f.Bcast {
		room := n.cfg.windowPackets() - f.Unacked.Len()
		if room < avail {
			return nil, false
		}
	}
	// The candidate list lives in the node's reusable buffer: only one
	// virtual packet is ever staged at a time (trySend bails while cur is
	// set), and a discarded candidate for a deferring flow is dead before
	// the next flow's candidate overwrites it.
	seqs := n.seqBuf[:0]
	for i := 0; i < avail; i++ {
		seqs = append(seqs, f.NextPktSeq+uint32(i))
	}
	n.seqBuf = seqs
	return seqs, false
}

// deferConflictEnd scans the ongoing list against the defer table and
// reports the earliest end among transmissions conflicting with flow f
// (§3.2). A transmission conflicts if the destination is busy sending or
// receiving, if we ourselves are its receiver, or if a defer pattern
// matches.
func (n *Node) deferConflictEnd(now sim.Time, f *txFlow) (sim.Time, bool) {
	var earliest sim.Time
	found := false
	note := func(end sim.Time) {
		if !found || end < earliest {
			earliest = end
			found = true
		}
	}
	targets := f.BcastTargets
	if !f.Bcast {
		n.targBuf[0] = f.Dst
		targets = n.targBuf[:]
	}
	n.Obs.ongoing(now, func(e *obsEntry) {
		if e.Src == n.addr {
			return
		}
		if e.Dst == n.addr {
			// We are that transmission's receiver; transmitting now would
			// abort it.
			note(e.EstEnd)
			return
		}
		for _, v := range targets {
			if e.Src == v || e.Dst == v {
				note(e.EstEnd) // destination busy sending or receiving
				return
			}
			if n.DeferTab.conflicts(now, v, e.Src, e.Dst, e.Rate) {
				note(e.EstEnd)
				return
			}
		}
	})
	return earliest, found
}

// startVpkt begins the header → data… → trailer chain for one virtual
// packet of flow f, consuming the candidate packets.
func (n *Node) startVpkt(f *txFlow, seqs []uint32, isRetx bool) {
	if isRetx {
		// Copy into the reusable buffer: seqs aliases the front of
		// f.Retx, which the rest of it then moves down over, keeping the
		// slice's capacity for the next retransmission timeout.
		n.seqBuf = append(n.seqBuf[:0], seqs...)
		seqs = n.seqBuf
		f.Retx = f.Retx[:copy(f.Retx, f.Retx[len(seqs):])]
	} else {
		f.NextPktSeq += uint32(len(seqs))
		if !f.Saturated {
			f.Backlog -= len(seqs)
		}
		if !f.Bcast {
			for _, s := range seqs {
				f.Unacked.Add(s)
			}
		}
	}
	vseq := n.NextVSeq
	n.NextVSeq++
	// The staged virtual packet and its header frame live in embedded
	// buffers: only one virtual packet is in flight per sender, and the
	// medium completes every reception of a frame before the sender's
	// tx-done, so by the time a buffer is rewritten nobody reads it.
	n.curBuf = vpktTx{flow: f, Dst: f.Dst, VSeq: vseq, Seqs: seqs, IsRetx: isRetx}
	n.Cur = &n.curBuf
	n.Stat.VpktsSent++
	txMicros := uint32(n.cfg.vpktAirtime(len(seqs)) / sim.Microsecond)
	n.hdrBuf = frame.Control{
		Src:          n.addr,
		Dst:          f.Dst,
		TxTimeMicros: txMicros,
		Seq:          vseq,
		Rate:         uint8(n.cfg.Rate),
	}
	n.radio.Transmit(&n.hdrBuf, phy.RateByID(ControlRate))
}

// continueVpkt transmits the next frame of the in-progress virtual packet
// with no interframe gap, as the prototype does (§4.1).
func (n *Node) continueVpkt() {
	c := n.Cur
	switch {
	case c.Next < len(c.Seqs):
		i := c.Next
		c.Next++
		// One embedded data buffer serves the whole chain: frame i's
		// receivers all decode before the tx-done that stages frame i+1.
		n.dataBuf = frame.Data{
			Src:        n.addr,
			Dst:        c.Dst,
			PktSeq:     c.Seqs[i],
			VSeq:       c.VSeq,
			Index:      uint16(i),
			PayloadLen: uint16(n.cfg.PayloadBytes),
		}
		n.Stat.Sent++
		n.radio.Transmit(&n.dataBuf, phy.RateByID(n.cfg.Rate))
	case !c.TrailerSent && !n.cfg.DisableTrailers:
		c.TrailerSent = true
		n.trlBuf = frame.Control{
			Trailer:      true,
			Src:          n.addr,
			Dst:          c.Dst,
			TxTimeMicros: uint32(n.cfg.vpktAirtime(len(c.Seqs)) / sim.Microsecond),
			Seq:          c.VSeq,
			Rate:         uint8(n.cfg.Rate),
		}
		n.radio.Transmit(&n.trlBuf, phy.RateByID(ControlRate))
	default:
		f := c.flow
		n.Cur = nil
		n.finishVpkt(f)
	}
}

// finishVpkt runs after the trailer: broadcast flows go straight to
// backoff; unicast flows wait up to tackwait for an ACK (Figure 6).
func (n *Node) finishVpkt(f *txFlow) {
	if f.Bcast {
		n.startBackoff()
		return
	}
	n.WaitAck = true
	n.sched.ResetAfter(&n.AckTimer, TackWait, n, evAckWait)
}

// ackWaitExpired fires when tackwait passes with no ACK.
func (n *Node) ackWaitExpired() {
	n.WaitAck = false
	n.Stat.AckTimeouts++
	if n.cfg.BackoffOnMissingAck {
		// Ablation: 802.11-style growth on every missing ACK.
		n.growCW()
	}
	n.startBackoff()
}

// growCW doubles the contention window, starting at CWStart and capped
// at CWMax (§3.4). CW is only ever 0 or in [CWStart, CWMax].
func (n *Node) growCW() {
	n.CW = min(max(2*n.CW, CWStart), CWMax)
}

// startBackoff waits a uniform duration in [0, CW] before the next
// virtual packet (§3.4), plus the software MAC's transmit-path latency
// (§4.1) — the prototype cannot fire the next header the same instant an
// ACK finishes decoding.
func (n *Node) startBackoff() {
	d := n.turnaroundDelay()
	if n.CW > 0 {
		b := n.RNG.DurationIn(0, n.CW)
		if b > 0 {
			n.Stat.Backoffs++
			d += b
		}
	}
	n.sched.ResetAfter(&n.BackoffTimer, d, n, evBackoff)
}

// onAck processes a cumulative windowed ACK (Figure 7). The ACK's source
// identifies which flow it acknowledges.
func (n *Node) onAck(a *frame.Ack) {
	n.Stat.AcksReceived++
	if f, ok := n.flowByDst[a.Src]; ok {
		if a.CumSeq >= f.NextPktSeq {
			f.Unacked.Clear() // everything sent is acknowledged
		} else {
			for s, ok := f.Unacked.First(); ok; s, ok = f.Unacked.Next(s) {
				if s < a.CumSeq || a.BitmapGet(int(s-a.CumSeq)) {
					f.Unacked.Delete(s)
				}
			}
		}
	}
	// Loss-rate-driven contention window (Figure 7): grow on reported
	// loss above l_backoff, reset otherwise. Never touched on missing
	// ACKs. (Under the 802.11-style ablation, any ACK resets it.)
	if n.cfg.BackoffOnMissingAck {
		n.CW = 0
	} else if a.LossRate > LossBackoff {
		n.growCW()
	} else {
		n.CW = 0
	}
	// Progress: the retransmission timeout restarts from scratch if still
	// needed.
	n.RetxTimer.Stop()
	if n.WaitAck {
		n.AckTimer.Stop()
		n.WaitAck = false
		n.startBackoff()
		return
	}
	// Re-enter the send loop through the software transmit path so the
	// next frame never starts the very instant the ACK ended.
	n.sched.PostAfter(n.turnaroundDelay(), n, evTrySend)
}

// retxTimedOut queues every unacknowledged packet of every flow for
// retransmission in sequence (§3.3).
func (n *Node) retxTimedOut() {
	n.Stat.RetxTimeouts++
	for _, f := range n.Flows {
		f.Retx = f.Retx[:0]
		for s, ok := f.Unacked.First(); ok; s, ok = f.Unacked.Next(s) {
			f.Retx = append(f.Retx, s)
		}
	}
	n.trySend()
}

// broadcastTick periodically broadcasts the interferer list to one-hop
// neighbours (§3.1) and decays stale statistics.
func (n *Node) broadcastTick() {
	now := n.sched.Now()
	period := n.cfg.BroadcastPeriod
	n.sched.PostAfter(n.RNG.DurationIn(period*9/10, period*11/10), n, evBroadcastTick)

	// Refresh the interferer list from current statistics.
	for k, st := range n.InterfStats {
		st.decay(now, StatsHalfLife)
		n.promote(k, st, now)
		if st.Expected < 1 {
			delete(n.InterfStats, k)
		}
	}
	// Expire stale entries first; the common steady-state case of an empty
	// list returns before allocating anything.
	live := 0
	for k, exp := range n.Interferers {
		if exp <= now {
			delete(n.Interferers, k)
			continue
		}
		live++
	}
	if live == 0 {
		return
	}
	// The list is built in the node's buffer unless the previous one is
	// still on the air or waiting for the radio.
	var list *frame.InterfererList
	if n.listBusy {
		list = &frame.InterfererList{Src: n.addr}
	} else {
		n.listBuf = frame.InterfererList{Src: n.addr, Entries: n.listBuf.Entries[:0]}
		list, n.listBusy = &n.listBuf, true
	}
	for k := range n.Interferers {
		list.Entries = append(list.Entries, frame.InterferenceEntry{
			Source:     k.Source,
			Interferer: k.Interferer,
			Rate:       k.Rate,
		})
	}
	// Stable wire order regardless of map iteration: addresses compare
	// as bytes, the order of their fixed-width hex strings.
	slices.SortFunc(list.Entries, func(a, b frame.InterferenceEntry) int {
		return cmp.Or(bytes.Compare(a.Source[:], b.Source[:]),
			bytes.Compare(a.Interferer[:], b.Interferer[:]),
			cmp.Compare(a.Rate, b.Rate))
	})
	n.sendListWithRetries(list, 8)
}

// sendListWithRetries transmits the interferer list as soon as the radio
// is free, giving up after the retry budget. The retry is a typed
// *listSend event rather than a closure so an agenda holding one stays
// checkpointable.
func (n *Node) sendListWithRetries(list *frame.InterfererList, budget int) {
	own := list == &n.listBuf
	if budget <= 0 {
		if own {
			n.listBusy = false
		}
		return
	}
	if n.radio.Transmitting() || n.Cur != nil {
		// The node's own list has at most one retry pending, so its
		// event argument lives in the node too.
		retry := &n.listRetry
		if !own {
			retry = new(listSend)
		}
		*retry = listSend{List: list, Budget: budget - 1}
		n.sched.PostAfter(2*sim.Millisecond, n, retry)
		return
	}
	n.Stat.ListsSent++
	n.radio.Transmit(list, phy.RateByID(ControlRate))
}
