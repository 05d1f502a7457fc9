package core

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Config holds CMAP's protocol constants. DefaultConfig returns the
// values of §4.2.
type Config struct {
	// Rate is the data bit-rate; ControlRate carries headers, trailers,
	// ACKs and interferer lists (always the lowest rate, §5.8).
	Rate        phy.RateID
	ControlRate phy.RateID
	// PayloadBytes is the application payload per data packet.
	PayloadBytes int
	// Nvpkt is the number of data packets per virtual packet (§4.1).
	Nvpkt int
	// Nwindow is the send window in virtual packets (§3.3).
	Nwindow int
	// TackWait is how long a sender waits for an ACK after a virtual
	// packet; TdeferWait is the settle time after a conflicting
	// transmission ends before re-checking the defer table (§4.2).
	TackWait   sim.Time
	TdeferWait sim.Time
	// Turnaround models the software-MAC-to-PHY latency of the prototype
	// (§4.1): receivers ACK this long after a trailer, and overheard
	// frames become visible to the access decision this long after
	// decode.
	Turnaround sim.Time
	// CWStart and CWMax bound the loss-based contention window (§3.4).
	CWStart, CWMax sim.Time
	// LossBackoff is l_backoff: ACK-reported loss above it grows CW.
	LossBackoff float64
	// LossInterf is l_interf: concurrent loss above it marks an
	// interferer (§3.1 argues both must be 0.5).
	LossInterf float64
	// MinInterfSamples is how many attributed packet observations a
	// (source, interferer) pair needs before it can enter the interferer
	// list.
	MinInterfSamples int
	// BroadcastPeriod is the interferer-list broadcast interval.
	BroadcastPeriod sim.Time
	// DeferTimeout expires defer-table entries; InterfTimeout expires
	// interferer-list entries; StatsHalfLife decays the loss counters so
	// the map adapts to changing conditions.
	DeferTimeout  sim.Time
	InterfTimeout sim.Time
	StatsHalfLife sim.Time
	// TauMin and TauMax bound the window-full retransmission timeout.
	// Zero values derive the paper's choice: TauMax = the airtime of a
	// full window, TauMin = TauMax/2 (§3.3).
	TauMin, TauMax sim.Time

	// PerDestQueues enables the §3.2 optimisation: per-destination
	// queues with independent windows and sequence spaces, letting the
	// sender transmit to a non-conflicting destination while the
	// head-of-line one must defer. Queues are scheduled round-robin so
	// none starves.
	PerDestQueues bool

	// TwoHopLists enables the §3.1 option for networks with asymmetric
	// links: nodes re-broadcast each received interferer list once, so a
	// sender that cannot hear the receiver directly still learns its
	// conflicts. "It may help to propagate the interferer list over two
	// hops."
	TwoHopLists bool

	// DisableTrailers is an ablation switch: virtual packets carry only a
	// header, and receivers ACK on the estimated end of the virtual
	// packet instead of on trailer receipt. Figure 16 quantifies what the
	// trailer buys; this knob lets the benchmark reproduce that choice.
	DisableTrailers bool
	// BackoffOnMissingAck is an ablation switch: grow the contention
	// window whenever tackwait expires (802.11-style) instead of from the
	// loss rate reported inside ACKs. §3.4 argues the latter is more
	// resilient to ACK loss.
	BackoffOnMissingAck bool
}

// DefaultConfig returns the constants of the paper's implementation
// (§4.2): Nvpkt=32, Nwindow=8, tackwait=tdeferwait=5 ms, CWstart=5 ms,
// CWmax=320 ms, both loss thresholds 0.5.
func DefaultConfig() Config {
	return Config{
		Rate:             phy.Rate6Mbps,
		ControlRate:      phy.Rate6Mbps,
		PayloadBytes:     1400,
		Nvpkt:            32,
		Nwindow:          8,
		TackWait:         5 * sim.Millisecond,
		TdeferWait:       5 * sim.Millisecond,
		Turnaround:       1 * sim.Millisecond,
		CWStart:          5 * sim.Millisecond,
		CWMax:            320 * sim.Millisecond,
		LossBackoff:      0.5,
		LossInterf:       0.5,
		MinInterfSamples: 16,
		BroadcastPeriod:  500 * sim.Millisecond,
		DeferTimeout:     3 * sim.Second,
		InterfTimeout:    10 * sim.Second,
		StatsHalfLife:    5 * sim.Second,
	}
}

// dataWireSize returns the on-air size of one CMAP data packet.
func (c Config) dataWireSize() int {
	d := frame.Data{PayloadLen: uint16(c.PayloadBytes)}
	return d.WireSize()
}

// dataAirtime returns the airtime of one data packet at the data rate.
func (c Config) dataAirtime() sim.Time {
	return phy.Airtime(phy.RateByID(c.Rate), c.dataWireSize())
}

// controlAirtime returns the airtime of a header or trailer packet.
func (c Config) controlAirtime() sim.Time {
	return phy.Airtime(phy.RateByID(c.ControlRate), (&frame.Control{}).WireSize())
}

// vpktAirtime returns the total airtime of a virtual packet carrying n
// data packets: header + n data + trailer, back to back (no trailer when
// the ablation switch disables it).
func (c Config) vpktAirtime(n int) sim.Time {
	controls := sim.Time(2)
	if c.DisableTrailers {
		controls = 1
	}
	return controls*c.controlAirtime() + sim.Time(n)*c.dataAirtime()
}

// finGrace is how long past a virtual packet's expected end a receiver
// waits for its trailer before finalising it without one. With trailers
// disabled (ablation) the timer is also the ACK trigger, so it fires
// after the software turnaround alone.
func (c Config) finGrace() sim.Time {
	if c.DisableTrailers {
		return c.Turnaround
	}
	return c.TackWait
}

// tauBounds returns the retransmission timeout bounds, deriving the
// paper's defaults when unset.
func (c Config) tauBounds() (sim.Time, sim.Time) {
	tauMax := c.TauMax
	if tauMax == 0 {
		tauMax = sim.Time(c.Nwindow) * c.vpktAirtime(c.Nvpkt)
	}
	tauMin := c.TauMin
	if tauMin == 0 {
		tauMin = tauMax / 2
	}
	return tauMin, tauMax
}

// windowPackets is the send window in data packets.
func (c Config) windowPackets() int { return c.Nwindow * c.Nvpkt }
