package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Dist accumulates float64 samples and answers order statistics.
// The zero value is ready to use. Its fields are its checkpoint form and
// exported only for encoding/json: the samples in their current order
// (Percentile sorts in place, and a resumed run must hold the same
// memory state, not just the same multiset) and whether that order is
// sorted. Change them through Add.
type Dist struct {
	Xs      []float64 `json:"xs,omitempty"`
	InOrder bool      `json:"sorted,omitempty"`
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.Xs = append(d.Xs, v)
	d.InOrder = false
}

// AddAll appends many samples.
func (d *Dist) AddAll(vs []float64) {
	d.Xs = append(d.Xs, vs...)
	d.InOrder = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.Xs) }

// Mean returns the sample mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if len(d.Xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.Xs {
		s += v
	}
	return s / float64(len(d.Xs))
}

// Std returns the population standard deviation.
func (d *Dist) Std() float64 {
	n := len(d.Xs)
	if n == 0 {
		return 0
	}
	m := d.Mean()
	var ss float64
	for _, v := range d.Xs {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(n))
}

func (d *Dist) sort() {
	if !d.InOrder {
		sort.Float64s(d.Xs)
		d.InOrder = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. Empty distributions return 0.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.Xs) == 0 {
		return 0
	}
	d.sort()
	if p <= 0 {
		return d.Xs[0]
	}
	if p >= 100 {
		return d.Xs[len(d.Xs)-1]
	}
	rank := p / 100 * float64(len(d.Xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.Xs[lo]
	}
	frac := rank - float64(lo)
	return d.Xs[lo]*(1-frac) + d.Xs[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Min returns the smallest sample.
func (d *Dist) Min() float64 { return d.Percentile(0) }

// Max returns the largest sample.
func (d *Dist) Max() float64 { return d.Percentile(100) }

// Values returns a copy of the samples in sorted order.
func (d *Dist) Values() []float64 {
	d.sort()
	return append([]float64(nil), d.Xs...)
}

// Window is a measurement interval in virtual time: samples outside
// [Start, End] are excluded. Setting Start past a run's transient is
// the warm-up truncation the paper's methodology uses (§5.1 measures
// the last 60 s of 100 s runs); the Meter and Latency recorders both
// apply it.
type Window struct {
	Start, End sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.Start && t <= w.End }

// Seconds returns the window length in seconds (0 if degenerate).
func (w Window) Seconds() float64 {
	if w.End <= w.Start {
		return 0
	}
	return (w.End - w.Start).Seconds()
}

// Jain returns Jain's fairness index over per-flow allocations:
// (Σx)² / (n·Σx²), which is 1 when all flows receive equally and 1/n
// when one flow takes everything. Empty or all-zero inputs return 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Latency accumulates per-packet delays (arrival to non-duplicate
// delivery) observed inside a measurement window, in milliseconds. The
// warm-up gate applies to the delivery instant: a packet that arrived
// before the window but was delivered inside it counts, matching how
// the goodput Meter treats the same delivery.
type Latency struct {
	// W bounds which deliveries are recorded.
	W Window `json:"w"`
	// D holds the recorded delays (see Dist).
	D Dist `json:"d"`
}

// Record adds one packet's delay if its delivery instant now falls
// inside the window.
func (l *Latency) Record(now sim.Time, delay sim.Time) {
	if !l.W.Contains(now) {
		return
	}
	l.D.Add(float64(delay) / float64(sim.Millisecond))
}

// N returns the number of recorded deliveries.
func (l *Latency) N() int { return l.D.N() }

// P50 returns the median delay in milliseconds.
func (l *Latency) P50() float64 { return l.D.Percentile(50) }

// P95 returns the 95th-percentile delay in milliseconds.
func (l *Latency) P95() float64 { return l.D.Percentile(95) }

// P99 returns the 99th-percentile delay in milliseconds.
func (l *Latency) P99() float64 { return l.D.Percentile(99) }

// Dist exposes the underlying sample distribution (milliseconds).
func (l *Latency) Dist() *Dist { return &l.D }

// Merge folds another recorder's samples into this one (window
// filtering already happened at Record time).
func (l *Latency) Merge(o *Latency) {
	if o != nil {
		l.D.AddAll(o.D.Xs)
	}
}

// Meter measures goodput the way the paper does (§5.1): it counts
// non-duplicate data packets delivered between Start and End of virtual
// time and reports bits/s over that window. Deduplication is the
// caller's job (the link layers know their sequence spaces).
type Meter struct {
	// Start and End bound the measurement window.
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Count and Bytes total what was recorded inside the window; they are
	// exported for encoding/json and changed through Record.
	Count uint64 `json:"packets"`
	Bytes uint64 `json:"bytes"`
}

// Record counts one delivered non-duplicate packet of the given payload
// size if now falls inside the measurement window.
func (m *Meter) Record(now sim.Time, payloadBytes int) {
	if now < m.Start || now > m.End {
		return
	}
	m.Count++
	m.Bytes += uint64(payloadBytes)
}

// Packets returns the number of packets recorded.
func (m *Meter) Packets() uint64 { return m.Count }

// Mbps returns the measured goodput in megabits per second.
func (m *Meter) Mbps() float64 {
	window := (m.End - m.Start).Seconds()
	if window <= 0 {
		return 0
	}
	return float64(m.Bytes) * 8 / window / 1e6
}

// FormatCDFs renders several named distributions as aligned columns of
// selected percentiles — the textual stand-in for the paper's CDF plots.
func FormatCDFs(names []string, dists []*Dist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %8s %8s %8s\n", "series", "p10", "p25", "p50", "p75", "p90", "mean")
	for i, name := range names {
		d := dists[i]
		fmt.Fprintf(&b, "%-24s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			name, d.Percentile(10), d.Percentile(25), d.Median(), d.Percentile(75), d.Percentile(90), d.Mean())
	}
	return b.String()
}
