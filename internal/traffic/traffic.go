package traffic

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Kind selects an arrival process.
type Kind uint8

// The workload models. Saturated is the zero value so that a zero Spec
// reproduces the always-backlogged behaviour every experiment had
// before this package existed.
const (
	// Saturated is the paper's traffic model: the sender always has the
	// next packet ready. A saturated flow needs no Source — callers use
	// the link layer's SetSaturated directly, and NewSource panics.
	Saturated Kind = iota
	// CBR emits packets at exactly PacketsPerSec with deterministic
	// spacing (a constant-bit-rate stream such as voice or video).
	CBR
	// Poisson emits packets with exponential inter-arrival times at mean
	// rate PacketsPerSec (the classic open-loop telephony model, and the
	// regime analysed by the unsaturated-CSMA literature).
	Poisson
	// OnOff is a bursty two-state source: exponentially distributed ON
	// periods (mean OnMean) during which packets flow CBR-style at
	// PacketsPerSec, alternating with silent OFF periods (mean OffMean).
	// The long-run mean rate is PacketsPerSec·OnMean/(OnMean+OffMean).
	OnOff
)

// String returns the CLI name of the kind.
func (k Kind) String() string {
	switch k {
	case Saturated:
		return "saturated"
	case CBR:
		return "cbr"
	case Poisson:
		return "poisson"
	case OnOff:
		return "onoff"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a CLI name ("saturated", "cbr", "poisson", "onoff")
// to its Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "saturated", "sat", "":
		return Saturated, nil
	case "cbr":
		return CBR, nil
	case "poisson":
		return Poisson, nil
	case "onoff", "on-off", "bursty":
		return OnOff, nil
	}
	return Saturated, fmt.Errorf("traffic: unknown kind %q (want saturated|cbr|poisson|onoff)", s)
}

// DefaultQueueCap is the per-flow backlog bound used when Spec.QueueCap
// is zero: arrivals beyond it are dropped at the queue tail, as a real
// device's transmit queue would.
const DefaultQueueCap = 256

// Spec describes one flow's workload. The zero value is the saturated
// model, which is why adding this package changed no existing
// experiment: an Options or Scenario that never mentions traffic still
// means "always backlogged".
type Spec struct {
	// Kind selects the arrival process.
	Kind Kind
	// PacketsPerSec is the arrival rate in packets per second: exact for
	// CBR, the mean for Poisson, and the within-burst (peak) rate for
	// OnOff. Ignored by Saturated.
	PacketsPerSec float64
	// Burst is how many packets arrive per arrival event (a batch of
	// frames from one application write). Zero means 1. The configured
	// PacketsPerSec is preserved: arrival events fire Burst times less
	// often.
	Burst int
	// QueueCap bounds the per-flow backlog; arrivals that would exceed
	// it are dropped and counted. Zero means DefaultQueueCap; negative
	// means unbounded.
	QueueCap int
	// OnMean and OffMean are the mean ON and OFF durations of the OnOff
	// model (exponentially distributed). Zero values default to 100 ms.
	OnMean, OffMean sim.Time
	// UpMean and DownMean, when both positive, enable flow churn on any
	// kind: the flow alternates between live sessions of mean duration
	// UpMean, during which the arrival process runs, and gaps of mean
	// DownMean with no arrivals (both exponential). This models flows
	// arriving and departing over the run — users joining and leaving —
	// independently of the packet-scale burstiness of OnOff.
	UpMean, DownMean sim.Time
}

// Saturate returns the saturated (always-backlogged) spec — the zero
// value, named for readability at call sites.
func Saturate() Spec { return Spec{} }

// CBRAt returns a constant-bit-rate spec at pps packets per second.
func CBRAt(pps float64) Spec { return Spec{Kind: CBR, PacketsPerSec: pps} }

// PoissonAt returns a Poisson spec with mean rate pps packets per second.
func PoissonAt(pps float64) Spec { return Spec{Kind: Poisson, PacketsPerSec: pps} }

// OnOffAt returns a bursty spec emitting at peak packets per second
// during exponential ON periods of mean on, silent for mean off.
func OnOffAt(peak float64, on, off sim.Time) Spec {
	return Spec{Kind: OnOff, PacketsPerSec: peak, OnMean: on, OffMean: off}
}

// PacketsPerSecFor converts an offered load in Mb/s of application
// payload to packets per second at the given payload size.
func PacketsPerSecFor(mbps float64, payloadBytes int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return mbps * 1e6 / (float64(payloadBytes) * 8)
}

// OfferedMbps reports the spec's long-run offered load in Mb/s of
// payload at the given payload size (0 for Saturated, whose load is
// "whatever the channel admits").
func (s Spec) OfferedMbps(payloadBytes int) float64 {
	pps := s.PacketsPerSec
	switch s.Kind {
	case Saturated:
		return 0
	case OnOff:
		on, off := s.onOffMeans()
		pps *= float64(on) / float64(on+off)
	}
	if s.UpMean > 0 && s.DownMean > 0 {
		pps *= float64(s.UpMean) / float64(s.UpMean+s.DownMean)
	}
	return pps * float64(payloadBytes) * 8 / 1e6
}

// WithOfferedMbps returns a copy of s whose rate is set so the
// long-run offered load equals mbps of payload at the given payload
// size: for OnOff the within-burst peak is scaled up by the duty
// cycle, and churned specs by the session duty cycle, so OfferedMbps
// of the result reports mbps for every kind. This is what keeps a load
// sweep's x-axis meaning "mean offered load" regardless of burstiness.
func (s Spec) WithOfferedMbps(mbps float64, payloadBytes int) Spec {
	pps := PacketsPerSecFor(mbps, payloadBytes)
	if s.Kind == OnOff {
		on, off := s.onOffMeans()
		pps *= float64(on+off) / float64(on)
	}
	if s.churns() {
		pps *= float64(s.UpMean+s.DownMean) / float64(s.UpMean)
	}
	s.PacketsPerSec = pps
	return s
}

// onOffMeans returns the ON/OFF means with defaults applied.
func (s Spec) onOffMeans() (on, off sim.Time) {
	on, off = s.OnMean, s.OffMean
	if on <= 0 {
		on = 100 * sim.Millisecond
	}
	if off <= 0 {
		off = 100 * sim.Millisecond
	}
	return on, off
}

// burst returns the batch size with the default applied.
func (s Spec) burst() int {
	if s.Burst <= 0 {
		return 1
	}
	return s.Burst
}

// queueCap returns the backlog bound with the default applied
// (negative = unbounded, reported as a very large cap).
func (s Spec) queueCap() int {
	switch {
	case s.QueueCap == 0:
		return DefaultQueueCap
	case s.QueueCap < 0:
		return int(^uint(0) >> 1) // unbounded
	default:
		return s.QueueCap
	}
}

// churns reports whether flow churn is configured.
func (s Spec) churns() bool { return s.UpMean > 0 && s.DownMean > 0 }

// maxMeanGapNs bounds the mean time between arrival events, and each
// ON/OFF and churn mean, at 2^56 ns (about 2.3 years): an exponential
// draw is at most ~37 means, so every gap a source arms still fits the
// int64 nanosecond clock.
const maxMeanGapNs = 1 << 56

// Validate reports whether the spec is runnable: its mean gap between
// arrival events (Burst / PacketsPerSec) must lie in [1 ns,
// maxMeanGapNs], and none of OnMean, OffMean, UpMean and DownMean may
// exceed maxMeanGapNs. A shorter gap rounds up to one clock tick, and a
// far longer gap or mean overflows the clock and wraps to one tick too;
// either way the source would post an event every nanosecond. The
// range also refuses NaN, infinite and non-positive rates.
func (s Spec) Validate() error {
	if s.Kind == Saturated {
		return nil
	}
	for i, mean := range [...]sim.Time{s.OnMean, s.OffMean, s.UpMean, s.DownMean} {
		if mean > maxMeanGapNs {
			return fmt.Errorf("traffic: %s of %.3g ns is over 2^56 ns", [...]string{"OnMean", "OffMean", "UpMean", "DownMean"}[i], float64(mean))
		}
	}
	if gap := s.meanGapNs(); !(gap >= 1 && gap <= maxMeanGapNs) {
		return fmt.Errorf("traffic: %v spec at %g packets/s in bursts of %d has a mean gap of %.3g ns, outside [1, 2^56] ns",
			s.Kind, s.PacketsPerSec, s.burst(), gap)
	}
	return nil
}

// meanGapNs is the mean time between arrival events in ns.
func (s Spec) meanGapNs() float64 { return float64(s.burst()) / s.PacketsPerSec * 1e9 }

// An Enqueuer is the transmit-queue face of a link-layer node: both
// core.Node (CMAP) and csma.Node (DCF) satisfy it. Enqueue adds packets
// towards dst; Backlog reports how many enqueued packets have not yet
// been handed to the MAC, which is how a Source enforces QueueCap.
type Enqueuer interface {
	Enqueue(dst int, count int)
	Backlog(dst int) int
}

// Stats counts a source's arrivals.
type Stats struct {
	// Offered is every packet the arrival process generated; Accepted
	// entered the queue; Dropped found it full.
	Offered, Accepted, Dropped uint64
	// Sessions counts churn up-transitions (1 for an unchurned flow).
	Sessions uint64
}

// srcEvent enumerates the source's timer callbacks. The constants are
// small integers so that passing one through the scheduler's `arg any`
// uses the runtime's static box — no allocation per event, the same
// device the MAC layers use for their fixed timers.
type srcEvent int

const (
	evArrive srcEvent = iota
	evPhase           // ON/OFF flip
	evChurn           // session up/down flip
)

// Source drives one flow's arrival process on the simulation scheduler.
// It owns three caller-embedded timers (arrival, ON/OFF phase, churn)
// re-armed through ResetAfter, so steady-state arrival processing — the
// timer fires, the backlog check, the Enqueue, the next draw — performs
// zero heap allocations, enforced by TestArrivalPathZeroAllocs the same
// way the transmit path is.
type Source struct {
	sched *sim.Scheduler
	spec  Spec
	q     Enqueuer
	dst   int

	meanGapNs float64 // mean event inter-arrival (Burst packets) in ns
	burst     int
	cap       int

	state
}

// state is a Source's process position and its checkpoint form: phase
// flags, the three timers, the arrival-time ring and the RNG stream. The
// spec, queue binding and rate parameters above it are structural. The
// ring is stored in full — delivered packets look their arrival times up
// long after acceptance, so its stale slots are still live data.
type state struct {
	On      bool      `json:"on,omitempty"`
	Up      bool      `json:"up,omitempty"`
	Started bool      `json:"started,omitempty"`
	Arrival sim.Timer `json:"arrival"`
	Phase   sim.Timer `json:"phase"`
	Churn   sim.Timer `json:"churn"`

	// Times is the arrival-time ring for latency measurement, indexed by
	// accepted-packet sequence & Mask (power-of-two length). The k-th
	// accepted packet becomes the flow's k-th link-layer sequence number
	// in both MACs, so a receiver can look its arrival time up by the
	// delivered frame's seq. Nil unless EnableLatency was called.
	Times []sim.Time `json:"times,omitempty"`
	Mask  uint32     `json:"mask,omitempty"`

	Stat Stats   `json:"stat"`
	RNG  sim.RNG `json:"rng"`
}

// NewSource binds an arrival process to q's queue towards dst, drawing
// all randomness from rng (give each source its own stream). It panics
// on a Saturated spec — saturated flows need no arrival events; call
// the link layer's SetSaturated instead — and on an invalid one.
func NewSource(sched *sim.Scheduler, rng *sim.RNG, spec Spec, q Enqueuer, dst int) *Source {
	if spec.Kind == Saturated {
		panic("traffic: NewSource on a Saturated spec; use the link layer's SetSaturated")
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	b := spec.burst()
	return &Source{
		sched:     sched,
		state:     state{RNG: *rng},
		spec:      spec,
		q:         q,
		dst:       dst,
		burst:     b,
		cap:       spec.queueCap(),
		meanGapNs: spec.meanGapNs(),
	}
}

// EnableLatency allocates the arrival-time ring so ArrivalTime can
// answer per-packet delays. windowPackets is the link layer's maximum
// number of accepted-but-undelivered packets beyond the queue cap (the
// send window); the ring is sized to the next power of two covering
// QueueCap + windowPackets so an in-flight packet's slot is never
// overwritten before delivery. Call before Start.
func (s *Source) EnableLatency(windowPackets int) {
	need := s.cap + windowPackets + 64
	if s.spec.QueueCap < 0 {
		// Unbounded queue: fall back to a generous fixed ring.
		need = 1 << 16
	}
	size := 1
	for size < need {
		size <<= 1
	}
	if size > 1<<16 {
		// The DCF sequence space is 16 bits; a ring larger than it could
		// not be indexed consistently by wrapped sequence numbers.
		size = 1 << 16
	}
	s.Times = make([]sim.Time, size)
	s.Mask = uint32(size - 1)
}

// Start arms the first arrival (and, when configured, the ON/OFF and
// churn clocks). The first packet arrives after one inter-arrival draw,
// not at time zero, so desynchronised flows stay desynchronised.
func (s *Source) Start() {
	if s.Started {
		panic("traffic: Source started twice")
	}
	s.Started = true
	s.Up = true
	s.On = true
	s.Stat.Sessions = 1
	if s.spec.churns() {
		s.sched.ResetAfter(&s.Churn, s.exp(s.spec.UpMean), s, evChurn)
	}
	if s.spec.Kind == OnOff {
		on, _ := s.spec.onOffMeans()
		s.sched.ResetAfter(&s.Phase, s.exp(on), s, evPhase)
	}
	s.armArrival()
}

// Stats returns a copy of the arrival counters.
func (s *Source) Stats() Stats { return s.Stat }

// Spec returns the workload this source runs.
func (s *Source) Spec() Spec { return s.spec }

// Accepted returns how many packets have entered the queue so far.
func (s *Source) Accepted() uint64 { return s.Stat.Accepted }

// ArrivalTime returns when the packet that became flow sequence number
// seq arrived, and whether the ring still holds it. Valid only after
// EnableLatency; sequence numbers wrap consistently because the ring
// length divides the 16-bit DCF sequence space.
func (s *Source) ArrivalTime(seq uint32) (sim.Time, bool) {
	if s.Times == nil {
		return 0, false
	}
	if uint64(seq) >= s.Stat.Accepted && s.Stat.Accepted <= uint64(s.Mask) {
		return 0, false // never accepted (pre-wrap; afterwards age guards)
	}
	return s.Times[seq&s.Mask], true
}

// HandleEvent implements sim.EventHandler: the three fixed timers
// arrive as srcEvent kinds.
func (s *Source) HandleEvent(arg any) {
	switch arg.(srcEvent) {
	case evArrive:
		s.arrive()
	case evPhase:
		s.phaseFlip()
	case evChurn:
		s.churnFlip()
	}
}

// arrive is the hot path: one batch of packets hits the queue and the
// next arrival is drawn. No allocation happens anywhere on it.
func (s *Source) arrive() {
	if !s.Up || !s.On {
		return // stale fire across a transition; transitions stop the timer
	}
	s.Stat.Offered += uint64(s.burst)
	k := s.burst
	if room := s.cap - s.q.Backlog(s.dst); k > room {
		k = room
	}
	if k > 0 {
		if s.Times != nil {
			for i := 0; i < k; i++ {
				s.Times[uint32(s.Stat.Accepted+uint64(i))&s.Mask] = s.sched.Now()
			}
		}
		s.Stat.Accepted += uint64(k)
		s.q.Enqueue(s.dst, k)
	} else {
		k = 0
	}
	s.Stat.Dropped += uint64(s.burst - k)
	s.armArrival()
}

// armArrival schedules the next arrival event per the spec's process.
func (s *Source) armArrival() {
	var gap sim.Time
	switch s.spec.Kind {
	case Poisson:
		gap = sim.Time(s.RNG.ExpFloat64() * s.meanGapNs)
	default: // CBR and the ON periods of OnOff: deterministic spacing
		gap = sim.Time(s.meanGapNs)
	}
	if gap < 1 {
		gap = 1
	}
	s.sched.ResetAfter(&s.Arrival, gap, s, evArrive)
}

// phaseFlip toggles the OnOff burst state.
func (s *Source) phaseFlip() {
	on, off := s.spec.onOffMeans()
	s.On = !s.On
	if s.On {
		s.sched.ResetAfter(&s.Phase, s.exp(on), s, evPhase)
		if s.Up {
			s.armArrival()
		}
	} else {
		s.Arrival.Stop()
		s.sched.ResetAfter(&s.Phase, s.exp(off), s, evPhase)
	}
}

// churnFlip toggles the session state: a down flow generates nothing
// (its queue keeps draining); a fresh session restarts the arrival
// process, in the ON phase for OnOff flows.
func (s *Source) churnFlip() {
	s.Up = !s.Up
	if s.Up {
		s.Stat.Sessions++
		s.sched.ResetAfter(&s.Churn, s.exp(s.spec.UpMean), s, evChurn)
		if s.spec.Kind == OnOff {
			s.On = true
			s.Phase.Stop()
			on, _ := s.spec.onOffMeans()
			s.sched.ResetAfter(&s.Phase, s.exp(on), s, evPhase)
		}
		s.armArrival()
	} else {
		s.Arrival.Stop()
		s.Phase.Stop()
		s.sched.ResetAfter(&s.Churn, s.exp(s.spec.DownMean), s, evChurn)
	}
}

// exp draws an exponential duration with the given mean (≥ 1 ns).
func (s *Source) exp(mean sim.Time) sim.Time {
	d := sim.Time(s.RNG.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
