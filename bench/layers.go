package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/medium"
)

// ratio is a/b, and zero where the workload has nothing to divide by
// (a figure run has no agenda the driver can read).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile of vs, zero when empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(p/100*float64(len(s))))]
}

// figureSpans are the exported figure calls timed inside wall_s, then
// the beyond-the-paper sweeps timed outside it.
var figureSpans = []string{
	"calibration", "fig12", "fig13", "fig14", "fig15", "fig17", "fig19", "fig20", "mesh",
	"cssweep", "loadsweep", "staleness",
}

// tracedShare is the share of a traced run's seconds spent in rep
// pairs; the isolated unit costs take about the rest.
const tracedShare = 0.75

// spanMedian is the median of one span over the reps that recorded it,
// scaled by unit; zero when none did.
func spanMedian(reps []rep, name string, unit float64) float64 {
	var vs []float64
	for _, r := range reps {
		if v, ok := r.spans[name]; ok {
			vs = append(vs, v*unit)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// runTraced measures the per-layer metrics: one untraced warm-up of rep
// 0, then for k = 0, 1, 2, … rep k untraced and again traced, for
// tracedShare of the given seconds (at least one pair), then the
// isolated unit costs. The untraced rep of a pair is the reference its
// traced twin's counts must equal and its tracing overhead is read
// against. Counts and simulated results are reported from rep 0, which
// repeats exactly; host times are medians over the pairs.
func (b bench) runTraced(w workload, seed uint64, seconds float64) outcome {
	o := newOutcome(w)
	o.checkRep(0, w.Rep(seed, 0, nil))

	tr := &tracer{}
	var traced []rep
	var overhead []float64
	start := time.Now()
	var last float64
	for k := 0; k < 1 || time.Since(start).Seconds()+last <= tracedShare*seconds; k++ {
		t0 := time.Now()
		ref := w.Rep(seed, k, nil)
		r := w.Rep(seed, k, tr)
		last = time.Since(t0).Seconds()
		o.checkRep(k, ref)
		o.checkRep(k, r)
		// Tracing observes; it may not change what is simulated.
		o.attempted++
		if diff := diffCounts(ref.counts, r.counts); diff != "" {
			o.failures = append(o.failures, fmt.Sprintf("traced rep %d counts differ from the untraced rep: %s", k, diff))
		} else if !slices.Equal(ref.digests, r.digests) {
			o.failures = append(o.failures, fmt.Sprintf("traced rep %d digest differs from the untraced rep", k))
		}
		traced = append(traced, r)
		overhead = append(overhead, r.wallS/ref.wallS-1)
	}
	o.checkHeadlines()
	o.attempted++
	if tr.err != nil {
		o.failures = append(o.failures, "profiler: "+tr.err.Error())
	}

	v, first := o.values, traced[0]
	for layer, share := range cpuShares(tr.samples) {
		v[layer+".cpu_frac"] = share
	}
	o.spread["trace.overhead_frac"] = overhead
	v["trace.overhead_frac"] = median(overhead)
	v["topo.generate_ms"] = spanMedian(traced, "topo.generate", 1e3)
	v["medium.construct_ms"] = spanMedian(traced, "medium.construct", 1e3)
	v["mac.attach_ms"] = spanMedian(traced, "mac.attach", 1e3)

	c := first.counts
	v["sim.events"] = c["sim.events"]
	v["sim.events_per_s"] = ratio(c["sim.events"], first.wallS)
	v["sim.ns_per_event"] = ratio(first.wallS*1e9, c["sim.events"])
	v["sim.pending_mean"] = ratio(tr.pending, float64(len(tr.windowMS)))
	v["sim.window_ms_p50"] = percentile(tr.windowMS, 50)
	v["sim.window_ms_p95"] = percentile(tr.windowMS, 95)
	v["medium.transmissions"] = c["medium.transmissions"]
	v["medium.mean_neighbors"] = ratio(c["medium.neighbor_sum"], c["medium.nodes"])
	v["medium.deliveries"] = c["medium.deliveries"]
	v["mac.goodput_mbps"] = ratio(c["mac.goodput_mbps"], c["runs"]) // mean aggregate of one run
	for _, name := range []string{"phy.decoded", "phy.corrupted", "phy.missed", "phy.captures",
		"traffic.offered", "traffic.accepted", "traffic.dropped", "mobility.moves",
		"experiments.paper_err_frac"} {
		v[name] = c[name]
	}
	v["phy.decode_ratio"] = ratio(c["phy.decoded"], c["medium.deliveries"])
	v["mac.tx_per_delivered_pkt"] = ratio(c["medium.transmissions"], c["mac.delivered_pkts"])
	v["traffic.drop_frac"] = ratio(c["traffic.dropped"], c["traffic.offered"])
	for _, name := range figureSpans {
		v["experiments."+name+"_s"] = spanMedian(traced, "experiments."+name, 1)
	}
	for _, hl := range headlines {
		v[hl.name] = first.headlines[hl.name]
	}
	v["host.gc_cycles"] = float64(first.gcCycles)

	unit := newRep()
	unitCosts{size: b.unitSize, seed: seed, figs: b.figs}.run(&unit, func() *medium.Medium { return w.BareMedium(seed) })
	o.attempted += unit.attempted // unit costs have no digest
	o.failures = append(o.failures, unit.failures...)
	for name, val := range unit.counts {
		v[name] = val
	}
	v["host.peak_rss_mb"] = peakRSSMB()
	return o
}

// diffCounts names the first counter on which two reps disagree.
func diffCounts(a, b counters) string {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if a[name] != b[name] {
			return fmt.Sprintf("%s %v vs %v", name, a[name], b[name])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d counters vs %d", len(a), len(b))
	}
	return ""
}
