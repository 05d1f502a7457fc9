package core

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

// CMAP's implementation constants (§4.2). No arm varies them, and the
// analytic oracle reads these same values.
const (
	// ControlRate carries headers, trailers, ACKs and interferer lists
	// (always the lowest rate, §5.8).
	ControlRate = phy.Rate6Mbps
	// TackWait is how long a sender waits for an ACK after a virtual
	// packet; TdeferWait is the settle time after a conflicting
	// transmission ends before re-checking the defer table (§4.2).
	TackWait   = 5 * sim.Millisecond
	TdeferWait = 5 * sim.Millisecond
	// Turnaround models the software-MAC-to-PHY latency of the prototype
	// (§4.1): receivers ACK this long after a trailer, and overheard
	// frames become visible to the access decision this long after
	// decode.
	Turnaround = 1 * sim.Millisecond
	// CWStart and CWMax bound the loss-based contention window (§3.4).
	CWStart = 5 * sim.Millisecond
	CWMax   = 320 * sim.Millisecond
	// LossBackoff is l_backoff: ACK-reported loss above it grows CW.
	LossBackoff = 0.5
	// DeferTimeout expires defer-table entries; InterfTimeout expires
	// interferer-list entries; StatsHalfLife decays the loss counters so
	// the map adapts to changing conditions.
	DeferTimeout  = 3 * sim.Second
	InterfTimeout = 10 * sim.Second
	StatsHalfLife = 5 * sim.Second
)

// Config holds the CMAP settings that a spec key, an option or an
// ablation varies. DefaultConfig returns the values of §4.2.
type Config struct {
	// Rate is the data bit-rate (ControlRate carries the rest).
	Rate phy.RateID
	// PayloadBytes is the application payload per data packet.
	PayloadBytes int
	// Nvpkt is the number of data packets per virtual packet (§4.1).
	Nvpkt int
	// Nwindow is the send window in virtual packets (§3.3).
	Nwindow int
	// LossInterf is l_interf: concurrent loss above it marks an
	// interferer (§3.1 argues both it and LossBackoff must be 0.5).
	LossInterf float64
	// MinInterfSamples is how many attributed packet observations a
	// (source, interferer) pair needs before it can enter the interferer
	// list.
	MinInterfSamples int
	// BroadcastPeriod is the interferer-list broadcast interval.
	BroadcastPeriod sim.Time

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

	// controlAir and dataAir are the airtimes of a header or trailer and
	// of one data packet, which the receive path reads on every frame:
	// New fills them in once (fillAirtimes), and they read zero before.
	controlAir, dataAir sim.Time
}

// DefaultConfig returns the settings of the paper's implementation
// (§4.2): Nvpkt=32, Nwindow=8, l_interf 0.5.
func DefaultConfig() Config {
	return Config{
		Rate:             phy.Rate6Mbps,
		PayloadBytes:     mac.DefaultPayload,
		Nvpkt:            32,
		Nwindow:          8,
		LossInterf:       0.5,
		MinInterfSamples: 16,
		BroadcastPeriod:  500 * sim.Millisecond,
	}
}

// fillAirtimes computes the airtimes the helpers below read from the
// rates and the payload size.
func (c *Config) fillAirtimes() {
	d := frame.Data{PayloadLen: uint16(c.PayloadBytes)}
	c.dataAir = phy.Airtime(phy.RateByID(c.Rate), d.WireSize())
	c.controlAir = phy.Airtime(phy.RateByID(ControlRate), (&frame.Control{}).WireSize())
}

// dataAirtime returns the airtime of one data packet at the data rate.
func (c *Config) dataAirtime() sim.Time { return c.dataAir }

// controlAirtime returns the airtime of a header or trailer packet.
func (c *Config) controlAirtime() sim.Time { return c.controlAir }

// vpktAirtime returns the total airtime of a virtual packet carrying n
// data packets: header + n data + trailer, back to back (no trailer when
// the ablation switch disables it).
func (c *Config) vpktAirtime(n int) sim.Time {
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
func (c *Config) finGrace() sim.Time {
	if c.DisableTrailers {
		return Turnaround
	}
	return TackWait
}

// tauBounds returns the paper's retransmission timeout bounds (§3.3):
// τmax is the airtime of a full window and τmin = τmax/2.
func (c *Config) tauBounds() (sim.Time, sim.Time) {
	tauMax := sim.Time(c.Nwindow) * c.vpktAirtime(c.Nvpkt)
	return tauMax / 2, tauMax
}

// windowPackets is the send window in data packets.
func (c *Config) windowPackets() int { return c.Nwindow * c.Nvpkt }

// windowSpan bounds how far apart the members of a sender's
// unacknowledged set, or a receiver's selective set, can lie: three
// windows. Let L be the sender's lowest unacknowledged packet. Every ACK
// it took had CumSeq ≤ L, and its bitmap reaches 2·windowPackets past
// CumSeq, so every packet sent at or above L + 2·windowPackets is still
// unacknowledged, and there are at most windowPackets of those: the
// sender has sent nothing at or above L + 3·windowPackets. A receiver's
// cumulative point is a packet it lacks, so it is unacknowledged and at
// least L, and its selective set lies between that point and the
// sender's next packet. TestWindowInvariantUnderLoss checks both.
func (c *Config) windowSpan() int { return 3 * c.windowPackets() }
