package csma

// RTS/CTS handshaking with NAV-based virtual carrier sense — the
// classic 802.11 hidden-terminal countermeasure, registered as the
// "rtscts" arm. A sender with a staged unicast data frame first
// transmits a 20-byte RTS; the addressee answers with a 14-byte CTS
// after SIFS unless its own NAV says the medium is reserved; the data
// frame follows the CTS after SIFS and the normal stop-and-wait ACK
// closes the exchange. Every station that
// overhears an RTS or CTS *not* addressed to it charges its network
// allocation vector (NAV) with the frame's duration field, freezing
// channel access until the reservation expires — which is exactly what
// silences a hidden terminal that cannot physically sense the data
// transmission it would collide with. All state lives in value-embedded
// timers and small-int event kinds, so the arm passes the conformance
// suite's 0-allocs/frame gate like its siblings.

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// usCeil converts a duration to whole microseconds, rounding up so a
// NAV reservation never undershoots the exchange it protects.
func usCeil(d sim.Time) sim.Time { return (d + 999) / 1000 }

// clampUS narrows a microsecond count to the 16-bit duration field.
func clampUS(us sim.Time) uint16 {
	if us > 65535 {
		return 65535
	}
	return uint16(us)
}

// ctsAirtime is the CTS frame's airtime at the control rate.
func ctsAirtime() sim.Time {
	return phy.Airtime(phy.RateByID(ControlRate), (&frame.Dot11CTS{}).WireSize())
}

// RTSNavUS returns the duration field a sender advertises in an RTS
// protecting a data frame of payloadBytes: the CTS, data and ACK
// airtimes plus the three SIFS gaps separating them, in microseconds.
func (c Config) RTSNavUS(payloadBytes int) uint16 {
	dataAir := phy.Airtime(phy.RateByID(c.Rate),
		(&frame.Dot11Data{PayloadLen: uint16(payloadBytes)}).WireSize())
	ackAir := phy.Airtime(phy.RateByID(ControlRate), (&frame.Dot11Ack{}).WireSize())
	return clampUS(usCeil(3*phy.SIFS + ctsAirtime() + dataAir + ackAir))
}

// CTSNavUS derives a CTS duration field from the RTS it answers: the
// advertised reservation minus the SIFS gap and the CTS's own airtime
// already spent by the time the CTS ends.
func CTSNavUS(rtsNavUS uint16) uint16 {
	spent := usCeil(phy.SIFS + ctsAirtime())
	if sim.Time(rtsNavUS) <= spent {
		return 0
	}
	return rtsNavUS - uint16(spent)
}

// CTSTimeout is how long an RTS sender waits for the answering CTS
// before backing off, mirroring the data frame's ACK timeout shape:
// the SIFS turnaround, the CTS airtime, and two slots of slack.
func CTSTimeout() sim.Time {
	return phy.SIFS + ctsAirtime() + 2*phy.SlotTime
}

// useRTS reports whether the staged frame goes through the handshake.
func (n *Node) useRTS() bool {
	return n.cfg.RTSCTS && !n.DataBuf.Dst.IsBroadcast()
}

// transmitRTS opens the handshake for the staged data frame.
func (n *Node) transmitRTS() {
	n.RtsBuf = frame.Dot11RTS{
		Src:        n.addr,
		Dst:        n.DataBuf.Dst,
		DurationUS: n.cfg.RTSNavUS(int(n.DataBuf.PayloadLen)),
	}
	n.Stat.RtsSent++
	n.radio.Transmit(&n.RtsBuf, phy.RateByID(ControlRate))
}

// rtsSent (tx-done of our RTS) arms the CTS timeout.
func (n *Node) rtsSent() {
	n.WaitCts = true
	n.sched.ResetAfter(&n.CtsTimer, CTSTimeout(), n, evCtsTimeout)
}

// ctsTimedOut handles a missing CTS exactly like a missing ACK: count
// the attempt, grow the window, and retry or drop at the limit.
func (n *Node) ctsTimedOut() {
	n.WaitCts = false
	n.Stat.CtsTimeouts++
	n.retryOrDrop()
}

// onRTS handles a decoded RTS: answer with a CTS if it is for us and
// our NAV shows the medium unreserved, otherwise charge the NAV.
func (n *Node) onRTS(r *frame.Dot11RTS) {
	if r.Dst != n.addr {
		n.setNav(n.sched.Now() + sim.Time(r.DurationUS)*1000)
		return
	}
	if n.navBusy() {
		return // a reserved medium: stay silent, the sender retries
	}
	cts := n.getCts()
	cts.Dst, cts.DurationUS = r.Src, CTSNavUS(r.DurationUS)
	n.sched.PostAfter(phy.SIFS, n, cts)
}

// onCTS handles a decoded CTS: either the clearance we were waiting
// for, or someone else's reservation to respect.
func (n *Node) onCTS(c *frame.Dot11CTS) {
	if c.Dst != n.addr {
		n.setNav(n.sched.Now() + sim.Time(c.DurationUS)*1000)
		return
	}
	if !n.WaitCts {
		return
	}
	n.CtsTimer.Stop()
	n.WaitCts = false
	n.sched.PostAfter(phy.SIFS, n, evSendData)
}

// sendDataAfterCts puts the protected data frame on air SIFS after the
// clearing CTS.
func (n *Node) sendDataAfterCts() {
	if !n.Pending {
		return
	}
	if n.radio.Transmitting() {
		n.sched.PostAfter(phy.SlotTime, n, evBeginAccess)
		return
	}
	n.Stat.Sent++
	n.radio.Transmit(&n.DataBuf, phy.RateByID(n.cfg.Rate))
}

// sendCts transmits a deferred CTS response (scheduled SIFS after the
// RTS), unless our own frame is on the air — then the RTS sender times
// out and retries.
func (n *Node) sendCts(cts *frame.Dot11CTS) {
	if n.radio.Transmitting() {
		n.ctsFree = append(n.ctsFree, cts)
		return
	}
	n.Stat.CtsSent++
	n.radio.Transmit(cts, phy.RateByID(ControlRate))
}

// getCts pops a recycled CTS buffer (refilled at OnTxDone).
func (n *Node) getCts() *frame.Dot11CTS {
	if k := len(n.ctsFree); k > 0 {
		c := n.ctsFree[k-1]
		n.ctsFree = n.ctsFree[:k-1]
		return c
	}
	return &frame.Dot11CTS{}
}

// navBusy reports whether the virtual carrier sense forbids access.
func (n *Node) navBusy() bool {
	return n.cfg.RTSCTS && n.sched.Now() < n.NavUntil
}

// setNav extends the NAV to the given deadline, freezing any running
// access countdown for the duration of the reservation.
func (n *Node) setNav(until sim.Time) {
	if !n.cfg.RTSCTS || until <= n.NavUntil {
		return
	}
	n.NavUntil = until
	if n.WantsTx {
		n.stopAccessTimers()
		n.armNavTimer()
	}
}

// armNavTimer (re)schedules the access-resume event at NAV expiry.
func (n *Node) armNavTimer() {
	n.NavTimer.Stop()
	n.sched.ResetAt(&n.NavTimer, n.NavUntil, n, evNavClear)
}

// navCleared resumes channel access once the reservation expires,
// physical carrier sense permitting.
func (n *Node) navCleared() {
	if !n.WantsTx || !n.Pending || n.WaitAck || n.WaitCts {
		return
	}
	if n.cfg.CarrierSense && n.radio.CarrierBusy() {
		return // resume on the idle edge
	}
	n.startDIFS()
}
