package phy

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Transmission is one frame on the air: the shared, per-transmission
// half of what a receiver perceives. The medium creates exactly one per
// transmitted frame (recycling them through a free list) and every
// radio it is delivered to shares the pointer; the per-receiver half —
// the power the signal arrives with — travels alongside it as a plain
// float, so fanning a frame out to k receivers allocates nothing.
type Transmission struct {
	// TxID identifies the transmission network-wide (all receivers of
	// one transmission share it). IDs are assigned in increasing order.
	TxID uint64
	// From is the transmitting node ID.
	From int
	// Frame is the frame being carried.
	Frame frame.Frame
	// Rate is the transmission bit-rate.
	Rate Rate
	// Start and End bound the on-air interval.
	Start, End sim.Time
	// Deliveries is the sender's delivery list captured at transmit
	// time. The end-of-signal fan-out walks this snapshot rather than
	// the medium's live list, so Arrive and Depart reach exactly
	// the same receiver set even if node movement replaces the live list
	// while the frame is on the air. Under static scenarios it aliases
	// the live list and behaviour is unchanged.
	Deliveries []Delivery
	// Heard lists, in ascending order, the positions in Deliveries of
	// the receivers the frame reaches: those a station listened on when
	// it started. Nil means every entry, which is what an All frame, a
	// restored frame and a frame whose sender's list the medium built
	// for its attended receivers only carry (the Deliveries of the last
	// two hold only the receivers the frame reached). Fixed at transmit
	// time, so both fan-outs of the frame walk the same receivers.
	Heard []int32
	// All marks a frame that goes to every radio on Deliveries whether
	// or not a station listens there: one that started in an instant in
	// which a station attached (see Channel.Attend). Fixed at transmit
	// time, so both fan-outs of the frame agree on it.
	All bool
}

// Delivery is one audible receiver of a node's transmissions: the
// receiver index and the power it hears, in mW, at the common transmit
// power. The medium builds and rebuilds delivery lists (see
// internal/medium); the type lives here so an in-flight Transmission
// can carry its snapshot without an import cycle.
type Delivery struct {
	Dst    int
	GainMW float64
}

// activeSignal is one transmission currently audible at a radio,
// paired with the power it arrives with there. In a checkpoint the
// transmission is its TxID (see Transmission.MarshalJSON).
type activeSignal struct {
	Tx      *Transmission `json:"tx_id"`
	PowerMW float64       `json:"power_mw"`
}

// RxInfo describes a reception outcome delivered to the MAC.
type RxInfo struct {
	From    int     // transmitting node ID
	PowerMW float64 // received power, linear: what the radio accounts in
	Rate    Rate
	Start   sim.Time // when the frame hit the antenna
	End     sim.Time // when it ended
}

// PowerDBm returns the received power in dBm. It costs a logarithm, so
// it is computed by whoever reads it (tracing) rather than stored for
// every reception.
func (i RxInfo) PowerDBm() float64 { return radio.MWToDBm(i.PowerMW) }

// Handler is the MAC-facing upcall interface of a radio. Radios are
// promiscuous: every decodable frame is delivered regardless of its
// destination address, as CMAP requires (§3).
type Handler interface {
	// OnFrame delivers a successfully decoded frame.
	OnFrame(f frame.Frame, info RxInfo)
	// OnCorrupt reports a frame the radio locked onto but failed to
	// decode (a collision or noise loss).
	OnCorrupt(info RxInfo)
	// OnTxDone reports the end of this radio's own transmission.
	OnTxDone(f frame.Frame)
	// OnCarrier reports carrier-sense transitions (busy=true on the
	// idle→busy edge, busy=false on busy→idle).
	OnCarrier(busy bool)
}

// Channel is the medium-facing downcall interface of a radio; the medium
// package implements it.
type Channel interface {
	// Transmit puts a frame on the air from the given radio at the given
	// rate and returns the transmission end time.
	Transmit(from *Radio, f frame.Frame, r Rate) sim.Time
	// Attend tells the channel a station now listens on r: from here on
	// frames are delivered to it. A radio nobody ever attached to is
	// left out of every fan-out (it transmits nothing, draws from a
	// private RNG stream and has nobody to make an upcall to, so what it
	// would have heard can reach no result). SetHandler calls it on
	// every nil → non-nil change; only a radio's first call counts.
	Attend(r *Radio)
}

// Radio is a half-duplex 802.11a transceiver. It tracks all signals
// currently on the air at its antenna, attempts preamble lock on new
// frames when idle, integrates SINR across interference segments while
// receiving, and answers carrier-sense queries.
type Radio struct {
	id      int
	sched   *sim.Scheduler
	channel Channel
	handler Handler
	exact   bool // Params.ExactReceptionMath

	RadioState
}

// Linear-domain reception constants, folded once so the per-segment
// hot path is a multiply-divide plus a table lookup with no dB round
// trip (see tables.go). With SINR already linear,
//
//	Eb/N0 = SINR · (BW/bitrate) · 10^((codingGain − implLoss)/10)
//
// so ebn0K[rate] is the exact path's MWToDBm → +offsets → FromDB chain
// as one constant per rate, lockK the same for the BPSK preamble, and
// captureK lockK further derated by the capture margin.
var (
	noiseMW       = radio.DBmToMW(NoiseFloorDBm)
	sensitivityMW = radio.DBmToMW(SensitivityDBm)
	ebn0K         = func() (k [len(rateTable)]float64) {
		for _, rt := range rateTable {
			k[rt.ID] = channelBandwidthMHz / rt.Mbps *
				radio.FromDB(rt.codingGainDB-ImplementationLossDB)
		}
		return k
	}()
	lockK = channelBandwidthMHz / rateTable[Rate6Mbps].Mbps *
		radio.FromDB(rateTable[Rate6Mbps].codingGainDB-ImplementationLossDB)
	captureK = lockK * radio.FromDB(-CaptureMarginDB)
)

// RadioState is the mutable half of a Radio and its checkpoint form;
// everything else is rebuilt from Params by NewRadio. The fields are
// exported for encoding/json only.
type RadioState struct {
	Sending bool      `json:"transmitting,omitempty"`
	TxFrame frame.Any `json:"tx_frame"`

	// Active holds the audible transmissions in ascending TxID order.
	// TxIDs are issued monotonically, so arrivals append and removals
	// binary-search — and any iteration is deterministic by
	// construction, unlike the map this slice replaced.
	Active []activeSignal `json:"active,omitempty"`
	// WeakN counts the audible transmissions that arrived below
	// sensitivity through Arrive: they add to TotalMW and nothing else, so
	// they hold no active entry (see Arrive).
	WeakN int `json:"weak_n,omitempty"`
	// TotalMW is the sum of all audible signal powers, active and weak
	// (incrementally maintained).
	TotalMW float64 `json:"total_mw"`
	// CSMW is state, not a constant: the cs@<dBm> arms override it per
	// node after construction.
	CSMW float64 `json:"cs_mw"`

	Locked      *Transmission `json:"locked_tx_id,omitempty"`
	LockedMW    float64       `json:"locked_mw,omitempty"` // received power of the locked transmission here
	LockLogSucc float64       `json:"lock_log_succ,omitempty"`
	SegStart    sim.Time      `json:"seg_start,omitempty"`

	Carrier bool       `json:"carrier_busy,omitempty"`
	RNG     sim.RNG    `json:"rng"`
	Stat    RadioStats `json:"stats"`
}

// RadioStats counts reception outcomes for diagnostics and the
// header/trailer delivery figures. A radio counts only what its channel
// delivers to it, so one no station ever attached to (Channel.Attend)
// stays at zero apart from frames marked Transmission.All.
type RadioStats struct {
	Decoded     uint64 // frames decoded successfully
	Corrupted   uint64 // locked but failed decode (or truncated by capture)
	Missed      uint64 // signals that never achieved lock
	AbortedRx   uint64 // receptions abandoned because the MAC transmitted
	Captures    uint64 // locks stolen by a much stronger arrival
	Transmitted uint64
	Weak        uint64 // arrivals below sensitivity taken by the interference path
}

// NewRadio creates a radio for node id. handler must be set with
// SetHandler before any traffic flows; channel is the medium.
func NewRadio(id int, params Params, sched *sim.Scheduler, rng *sim.RNG, channel Channel) *Radio {
	return &Radio{
		id:         id,
		sched:      sched,
		channel:    channel,
		exact:      params.ExactReceptionMath,
		RadioState: RadioState{CSMW: radio.DBmToMW(CSThresholdDBm), RNG: *rng},
	}
}

// SetCSThresholdDBm overrides this radio's carrier-sense threshold,
// leaving the rest of the network at the medium-wide default. The
// CS-threshold MAC arms use it to sweep sensing aggressiveness per
// node; it only affects CarrierBusy, never reception outcomes.
func (r *Radio) SetCSThresholdDBm(dbm float64) {
	r.CSMW = radio.DBmToMW(dbm)
}

// ID returns the node ID this radio belongs to.
func (r *Radio) ID() int { return r.id }

// SetHandler installs the MAC upcall target. The first handler a radio
// is given is also what makes its channel start delivering frames to it
// (Channel.Attend); replacing one handler with another — a tracer
// wrapping the MAC — is not an attach, and SetHandler(nil) afterwards
// only stops the upcalls: the radio keeps hearing the air.
func (r *Radio) SetHandler(h Handler) {
	if r.handler == nil && h != nil && r.channel != nil {
		r.channel.Attend(r)
	}
	r.handler = h
}

// Stats returns a copy of the radio's counters.
func (r *Radio) Stats() RadioStats { return r.Stat }

// Transmitting reports whether the radio is currently sending.
func (r *Radio) Transmitting() bool { return r.Sending }

// ActiveSignals returns the number of transmissions currently audible
// at this radio's antenna.
func (r *Radio) ActiveSignals() int { return len(r.Active) + r.WeakN }

// CarrierBusy reports the carrier-sense state: busy while transmitting,
// while locked onto an incoming frame, or while total in-air power at the
// antenna exceeds the carrier-sense threshold.
func (r *Radio) CarrierBusy() bool {
	return r.Sending || r.Locked != nil || r.TotalMW >= r.CSMW
}

// Transmit starts sending f at rate rate. The radio is half-duplex: any
// reception in progress is abandoned. Transmitting while already
// transmitting is a MAC bug and panics. Returns the transmission end time.
func (r *Radio) Transmit(f frame.Frame, rate Rate) sim.Time {
	if r.Sending {
		panic(fmt.Sprintf("phy: node %d transmit while transmitting", r.id))
	}
	if r.Locked != nil {
		// Abandon the reception; the frame is lost to us.
		r.Stat.AbortedRx++
		r.Locked = nil
		r.LockedMW = 0
		r.LockLogSucc = 0
	}
	r.Sending = true
	r.TxFrame.Frame = f
	r.Stat.Transmitted++
	end := r.channel.Transmit(r, f, rate)
	r.updateCarrier()
	return end
}

// TxDone is called by the medium when this radio's transmission ends.
// MACs never call it.
func (r *Radio) TxDone() {
	r.Sending = false
	f := r.TxFrame.Frame
	r.TxFrame.Frame = nil
	r.updateCarrier()
	if r.handler != nil {
		r.handler.OnTxDone(f)
	}
}

// findActive returns the index of txID in the active list.
func (r *Radio) findActive(txID uint64) (int, bool) {
	lo, hi := 0, len(r.Active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Active[mid].Tx.TxID < txID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Active) && r.Active[lo].Tx.TxID == txID {
		return lo, true
	}
	return lo, false
}

// Arrive is the fan-out entry point: a transmission begins to be heard
// at this radio with power powerMW. An arrival below sensitivity can
// neither lock nor capture — tryLock and tryCapture refuse it on this
// same comparison — so it is interference only and takes the short
// path: everything SignalStart would do for it, minus the active-set
// entry nothing would ever read. Depart must be handed the same power,
// which is what classifies the signal the same way on the way out.
func (r *Radio) Arrive(tx *Transmission, powerMW float64) {
	if powerMW < sensitivityMW {
		if r.Locked != nil {
			r.closeSegment(r.sched.Now())
		}
		if r.Sending || r.Locked == nil {
			// SignalStart counts these missed; an arrival while locked
			// is a refused capture, which counts nothing.
			r.Stat.Missed++
		}
		r.Stat.Weak++
		r.WeakN++
		r.TotalMW += powerMW
		r.updateCarrier()
		return
	}
	r.SignalStart(tx, powerMW)
}

// Depart is the fan-out exit point matching Arrive. The caller hands
// back the power it delivered (the medium is walking the transmit-time
// delivery snapshot anyway), so a weak departure needs no lookup.
func (r *Radio) Depart(tx *Transmission, powerMW float64) {
	if powerMW < sensitivityMW {
		if r.Locked != nil {
			r.closeSegment(r.sched.Now())
		}
		r.WeakN--
		r.TotalMW -= powerMW
		r.settleTotal()
		r.updateCarrier()
		return
	}
	r.SignalEnd(tx)
}

// settleTotal runs after every subtraction from totalMW. Nothing
// audible means exactly zero in-air power: reset the incremental
// accumulator so add/subtract float drift cannot survive a quiet period
// and grow without bound. Weak signals are on the air too, so the reset
// waits for them — at exactly the instants it would if they sat in the
// active set.
func (r *Radio) settleTotal() {
	if (len(r.Active) == 0 && r.WeakN == 0) || r.TotalMW < 0 {
		r.TotalMW = 0
	}
}

// SignalStart is the full arrival path: the transmission joins the
// active set and may lock or capture. Arrive routes every arrival at or
// above sensitivity here; called directly with any power it is the
// one-tier reference the interference path is tested against.
func (r *Radio) SignalStart(tx *Transmission, powerMW float64) {
	now := r.sched.Now()
	// Close the running interference segment of a locked reception before
	// the interference set changes.
	if r.Locked != nil {
		r.closeSegment(now)
	}
	// TxIDs are monotone, so new arrivals belong at the tail; the
	// general insert is kept for robustness against future reordering.
	if n := len(r.Active); n == 0 || r.Active[n-1].Tx.TxID < tx.TxID {
		r.Active = append(r.Active, activeSignal{Tx: tx, PowerMW: powerMW})
	} else {
		i, _ := r.findActive(tx.TxID)
		r.Active = append(r.Active, activeSignal{})
		copy(r.Active[i+1:], r.Active[i:])
		r.Active[i] = activeSignal{Tx: tx, PowerMW: powerMW}
	}
	r.TotalMW += powerMW
	switch {
	case r.Sending:
		r.Stat.Missed++
	case r.Locked == nil:
		r.tryLock(tx, powerMW, now)
	default:
		r.tryCapture(tx, powerMW, now)
	}
	r.updateCarrier()
}

// tryCapture models OFDM sync restart: a frame arriving far above the
// currently locked (weaker) frame captures the receiver. The old frame is
// abandoned and reported corrupted.
func (r *Radio) tryCapture(tx *Transmission, powerMW float64, now sim.Time) {
	if powerMW < sensitivityMW {
		return
	}
	interf := r.TotalMW - powerMW
	if interf < 0 {
		interf = 0
	}
	var pCapture float64
	if r.exact {
		sinr := radio.SINR(powerMW, noiseMW, interf) - ImplementationLossDB
		pCapture = LockProbability(sinr - CaptureMarginDB)
	} else {
		pCapture = lockProbLinear(powerMW / (noiseMW + interf) * captureK)
	}
	if r.RNG.Float64() >= pCapture {
		return
	}
	old, oldMW := r.Locked, r.LockedMW
	r.Locked = tx
	r.LockedMW = powerMW
	r.LockLogSucc = 0
	r.SegStart = now
	r.Stat.Captures++
	r.Stat.Corrupted++
	if r.handler != nil {
		r.handler.OnCorrupt(RxInfo{
			From:    old.From,
			PowerMW: oldMW,
			Rate:    old.Rate,
			Start:   old.Start,
			End:     now,
		})
	}
}

// SignalEnd is the full departure path, matching SignalStart.
func (r *Radio) SignalEnd(tx *Transmission) {
	now := r.sched.Now()
	if r.Locked != nil {
		r.closeSegment(now)
	}
	if i, ok := r.findActive(tx.TxID); ok {
		powerMW := r.Active[i].PowerMW
		copy(r.Active[i:], r.Active[i+1:])
		r.Active[len(r.Active)-1] = activeSignal{} // drop the Transmission reference
		r.Active = r.Active[:len(r.Active)-1]
		r.TotalMW -= powerMW
	}
	r.settleTotal()
	if r.Locked == tx {
		r.finishReception(tx, now)
	}
	r.updateCarrier()
}

// tryLock attempts preamble acquisition on tx. Acquisition is
// probabilistic: a short BPSK block must decode at the instantaneous SINR.
func (r *Radio) tryLock(tx *Transmission, powerMW float64, now sim.Time) {
	if powerMW < sensitivityMW {
		r.Stat.Missed++
		return
	}
	interf := r.TotalMW - powerMW
	if interf < 0 {
		interf = 0
	}
	var pLock float64
	if r.exact {
		sinr := radio.SINR(powerMW, noiseMW, interf) - ImplementationLossDB
		pLock = LockProbability(sinr)
	} else {
		pLock = lockProbLinear(powerMW / (noiseMW + interf) * lockK)
	}
	if r.RNG.Float64() >= pLock {
		r.Stat.Missed++
		return
	}
	r.Locked = tx
	r.LockedMW = powerMW
	r.LockLogSucc = 0
	r.SegStart = now
}

// closeSegment integrates the bit-success probability of the locked frame
// over [segStart, now) at the current interference level. On the table
// path this is one divide, one multiply and a table interpolation — no
// transcendental, no dB round trip.
func (r *Radio) closeSegment(now sim.Time) {
	dur := now - r.SegStart
	r.SegStart = now
	if dur <= 0 {
		return
	}
	interf := r.TotalMW - r.LockedMW
	if interf < 0 {
		interf = 0
	}
	bits := float64(dur) * r.Locked.Rate.Mbps / 1000 // ns × Mb/s = 1e-3 bits
	if r.exact {
		sinr := radio.SINR(r.LockedMW, noiseMW, interf) - ImplementationLossDB
		r.LockLogSucc += logSuccess(BitErrorRate(r.Locked.Rate, sinr), bits)
		return
	}
	g := r.LockedMW / (noiseMW + interf) * ebn0K[r.Locked.Rate.ID]
	r.LockLogSucc += bits * lnBitSuccess(r.Locked.Rate.Mod, g)
}

// finishReception resolves the decode of a completed locked frame.
func (r *Radio) finishReception(tx *Transmission, now sim.Time) {
	r.Locked = nil
	info := RxInfo{
		From:    tx.From,
		PowerMW: r.LockedMW,
		Rate:    tx.Rate,
		Start:   tx.Start,
		End:     now,
	}
	r.LockedMW = 0
	logSucc := r.LockLogSucc
	r.LockLogSucc = 0
	if r.handler == nil {
		return
	}
	// A reception no segment degraded ends with exactly 0, and
	// math.Exp(0) is exactly 1: skip the transcendental, keep the draw.
	pSuccess := 1.0
	if logSucc != 0 {
		pSuccess = math.Exp(logSucc)
	}
	if r.RNG.Float64() < pSuccess {
		r.Stat.Decoded++
		r.handler.OnFrame(tx.Frame, info)
	} else {
		r.Stat.Corrupted++
		r.handler.OnCorrupt(info)
	}
}

// updateCarrier delivers carrier-sense edges to the MAC.
func (r *Radio) updateCarrier() {
	busy := r.CarrierBusy()
	if busy == r.Carrier {
		return
	}
	r.Carrier = busy
	if r.handler != nil {
		r.handler.OnCarrier(busy)
	}
}
