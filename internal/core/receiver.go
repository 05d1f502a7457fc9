package core

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// flowFor returns (creating if needed) the receive state for sender src.
func (n *Node) flowFor(src frame.Addr, srcID int) *rxFlow {
	f, ok := n.Rx[src]
	if !ok {
		f = &rxFlow{SrcID: srcID, SrcAddr: src, Sack: make(map[uint32]struct{})}
		n.Rx[src] = f
	}
	return f
}

// expectedFromTxTime recovers the data-packet count of a virtual packet
// from its announced transmission time.
func (n *Node) expectedFromTxTime(txMicros uint32) int {
	dataTime := sim.Time(txMicros)*sim.Microsecond - 2*n.cfg.controlAirtime()
	if dataTime <= 0 {
		return 0
	}
	per := n.cfg.dataAirtime()
	k := int((dataTime + per/2) / per)
	if k < 0 {
		k = 0
	}
	return k
}

// beginVpkt opens reception state for virtual packet vseq from flow f,
// finalising any previous one first.
func (n *Node) beginVpkt(f *rxFlow, vseq uint32, start sim.Time, expected int, rate uint8, bcast bool) *rxVpkt {
	if f.Cur != nil && f.Cur.VSeq != vseq {
		n.finalizeVpkt(f)
	}
	if f.Cur == nil {
		if expected <= 0 {
			expected = n.cfg.Nvpkt
		}
		// Reception state lives in the flow's embedded buffer: one inbound
		// virtual packet is tracked per sender at a time.
		got := f.gotBuf
		if cap(got) < expected {
			got = make([]bool, expected)
		} else {
			got = got[:expected]
			for i := range got {
				got[i] = false
			}
		}
		f.gotBuf = got
		f.curBuf = rxVpkt{
			VSeq:     vseq,
			Start:    start,
			Expected: expected,
			Got:      got,
			Rate:     rate,
			Bcast:    bcast,
		}
		f.Cur = &f.curBuf
		// Finalise even if the trailer never arrives (lost or sender
		// aborted): the finalisation grace after the expected end.
		end := start + n.cfg.vpktAirtime(expected)
		f.FinVseq = vseq
		n.sched.ResetAt(&f.FinTimer, end+n.cfg.finGrace(), n, f)
	}
	return f.Cur
}

// vpktFinExpired fires when the finalisation grace period of the virtual
// packet that armed f's timer passes without a trailer.
func (n *Node) vpktFinExpired(f *rxFlow) {
	if f.Cur == nil || f.Cur.VSeq != f.FinVseq {
		return
	}
	gotAny := false
	for _, g := range f.Cur.Got {
		if g {
			gotAny = true
			break
		}
	}
	vseq := f.Cur.VSeq
	wasBcast := f.Cur.Bcast
	n.finalizeVpkt(f)
	if n.cfg.DisableTrailers && !wasBcast && gotAny {
		n.sendAck(f, vseq, 10)
	}
}

// rxHeader handles a virtual-packet header addressed to us.
func (n *Node) rxHeader(c *frame.Control, info phy.RxInfo) {
	f := n.flowFor(c.Src, info.From)
	v := n.beginVpkt(f, c.Seq, info.Start, n.expectedFromTxTime(c.TxTimeMicros), c.Rate, c.Dst.IsBroadcast())
	v.HeaderSeen = true
}

// rxData handles a data packet addressed to us (or broadcast).
func (n *Node) rxData(d *frame.Data, info phy.RxInfo) {
	f := n.flowFor(d.Src, info.From)
	start := info.Start - n.cfg.controlAirtime() - sim.Time(d.Index)*n.cfg.dataAirtime()
	v := n.beginVpkt(f, d.VSeq, start, 0, uint8(n.cfg.Rate), d.Dst.IsBroadcast())
	if int(d.Index) < len(v.Got) {
		v.Got[d.Index] = true
	}

	// Deduplicate and deliver. Broadcast flows never retransmit, so every
	// packet is fresh; unicast flows dedup against the cumulative point
	// and the SACK set.
	if !d.Dst.IsBroadcast() {
		if d.PktSeq < f.Cum {
			n.Stat.Duplicates++
			return
		}
		if _, dup := f.Sack[d.PktSeq]; dup {
			n.Stat.Duplicates++
			return
		}
		f.Sack[d.PktSeq] = struct{}{}
		for {
			if _, ok := f.Sack[f.Cum]; !ok {
				break
			}
			delete(f.Sack, f.Cum)
			f.Cum++
		}
	}
	n.Stat.Delivered++
	if n.Meter != nil {
		n.Meter.Record(n.sched.Now(), int(d.PayloadLen))
	}
	if n.OnDeliver != nil {
		n.OnDeliver(info.From, d.PktSeq, n.sched.Now())
	}
}

// rxTrailer handles a trailer addressed to us: it closes the virtual
// packet and triggers the cumulative ACK (§3.3, §4.1).
func (n *Node) rxTrailer(c *frame.Control, info phy.RxInfo) {
	f := n.flowFor(c.Src, info.From)
	start := info.End - sim.Time(c.TxTimeMicros)*sim.Microsecond
	v := n.beginVpkt(f, c.Seq, start, n.expectedFromTxTime(c.TxTimeMicros), c.Rate, c.Dst.IsBroadcast())
	v.TrailerSeen = true
	n.finalizeVpkt(f)
	if !c.Dst.IsBroadcast() {
		n.sendAck(f, c.Seq, 10)
	}
}

// finalizeVpkt closes the current inbound virtual packet of f: computes
// its loss, attributes lost packets to overlapping transmissions for the
// interferer list (§3.1), and updates the visibility counters.
func (n *Node) finalizeVpkt(f *rxFlow) {
	v := f.Cur
	if v == nil {
		return
	}
	f.Cur = nil
	f.FinTimer.Stop()
	received := 0
	for _, g := range v.Got {
		if g {
			received++
		}
	}
	lost := v.Expected - received
	f.PendExpected += v.Expected
	f.PendLost += lost
	f.VpktsSeen++
	if v.HeaderSeen {
		f.VpktsHeader++
	}
	if v.HeaderSeen || v.TrailerSeen {
		f.VpktsHdrOrTrl++
	}

	// Per-packet attribution: a lost (or received) packet slot is
	// evidence about every transmission that overlapped its airtime.
	now := n.sched.Now()
	hdr := n.cfg.controlAirtime()
	per := n.cfg.dataAirtime()
	for i := 0; i < v.Expected; i++ {
		t := v.Start + hdr + sim.Time(i)*per + per/2
		hit := i < len(v.Got) && v.Got[i]
		n.Obs.overlapping(t, f.SrcAddr, func(e *obsEntry) {
			if e.Src == n.addr {
				return
			}
			k := pairKey{Source: f.SrcAddr, Interferer: e.Src, Rate: e.Rate}
			st, ok := n.InterfStats[k]
			if !ok {
				st = &interfStat{LastDecay: now}
				n.InterfStats[k] = st
			}
			st.decay(now, n.cfg.StatsHalfLife)
			st.Expected++
			if !hit {
				st.Lost++
			}
		})
	}
	// Promote pairs over the loss threshold immediately so senders learn
	// at the next broadcast.
	for k, st := range n.InterfStats {
		if k.Source != f.SrcAddr {
			continue
		}
		if st.Expected >= float64(n.cfg.MinInterfSamples) && st.lossRate() > n.cfg.LossInterf {
			n.Interferers[k] = now + n.cfg.InterfTimeout
		}
	}
}

// ackAttempt is one pending cumulative-ACK transmission: the frame plus
// its remaining retry budget. Attempts recycle through the node's free
// list once the frame has left the air (or the budget runs out), so the
// per-virtual-packet ACK path allocates nothing in steady state.
type ackAttempt struct {
	Ack  frame.Ack `json:"ack"`
	Left int       `json:"left"`
}

// getAckAttempt pops a recycled attempt (refilled at OnTxDone), with the
// bitmap truncated for reuse — BitmapSet appends explicit zero bytes, so
// stale contents can never leak through.
func (n *Node) getAckAttempt() *ackAttempt {
	if k := len(n.ackFree); k > 0 {
		a := n.ackFree[k-1]
		n.ackFree = n.ackFree[:k-1]
		a.Ack = frame.Ack{Bitmap: a.Ack.Bitmap[:0]}
		return a
	}
	return &ackAttempt{}
}

// sendAck emits the cumulative windowed ACK for flow f after the software
// turnaround, retrying briefly if the radio is mid-transmission.
func (n *Node) sendAck(f *rxFlow, vseq uint32, budget int) {
	loss := 0.0
	if f.PendExpected > 0 {
		loss = float64(f.PendLost) / float64(f.PendExpected)
	}
	f.PendExpected, f.PendLost = 0, 0
	aa := n.getAckAttempt()
	aa.Left = budget
	aa.Ack.Src = n.addr
	aa.Ack.Dst = f.SrcAddr
	aa.Ack.CumSeq = f.Cum
	aa.Ack.VSeq = vseq
	aa.Ack.LossRate = loss
	limit := uint32(2 * n.cfg.windowPackets())
	for s := range f.Sack {
		if s >= f.Cum && s-f.Cum < limit {
			aa.Ack.BitmapSet(int(s - f.Cum))
		}
	}
	n.sched.PostAfter(n.turnaroundDelay(), n, aa)
}

// runAckAttempt transmits a pending ACK as soon as the radio is free,
// giving up (and recycling the attempt) after the retry budget.
func (n *Node) runAckAttempt(aa *ackAttempt) {
	if aa.Left <= 0 {
		n.ackFree = append(n.ackFree, aa)
		return
	}
	if n.radio.Transmitting() {
		aa.Left--
		n.sched.PostAfter(200*sim.Microsecond, n, aa)
		return
	}
	n.Stat.AcksSent++
	n.InflightAck = aa
	n.radio.Transmit(&aa.Ack, phy.RateByID(n.cfg.ControlRate))
}

// turnaroundDelay draws the software-MAC-to-PHY latency with the
// prototype's empirical distribution (§4.1): for Turnaround = 1 ms, 90%
// of operations take 0.5–2 ms and the rest 2–5 ms. The jitter is load
// bearing — it is what lets a deferring sender occasionally win the
// channel from the current holder, as on the real testbed.
func (n *Node) turnaroundDelay() sim.Time {
	t := n.cfg.Turnaround
	if t <= 0 {
		return 0
	}
	if n.RNG.Float64() < 0.9 {
		return n.RNG.DurationIn(t/2, 2*t)
	}
	return n.RNG.DurationIn(2*t, 5*t)
}
