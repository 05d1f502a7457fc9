// Command bench is the repository's benchmark: four workloads measured
// end to end (host time, host allocation, live heap, set-up time) with
// every output checked, and in a separate traced run measured layer by
// layer — CPU share per package, event and signal counts, host time
// per simulated window, figure spans and isolated unit costs — all
// from outside, through the exported functions of repro/internal.
//
// BENCHMARK.json at the repository root names the command, the
// workloads and every metric; README.md in this directory defines them.
//
//	bash bench/run.sh --workload scale_sparse --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --agree
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// bench is the benchmark at one size: the workloads, the figure
// configuration the unit costs time Figure 12 under, and the scale of
// the unit costs' iteration counts.
type bench struct {
	workloads []workload
	figs      experiments.Options
	unitSize  float64
}

// fullBench returns the four workloads at benchmark size. Sizes are
// fixed here and repeated in README.md; a later change may not edit
// them while claiming a gain. One rep is sized to about two seconds of
// run phase on the reference host, so that a run of run_seconds takes
// its medians over ten or more reps, each on freshly drawn inputs.
func fullBench() bench {
	figs := experiments.Quick(0)
	figs.Workers = 2
	figs.Duration, figs.Warmup = 3*sim.Second, 1500*sim.Millisecond
	arms := []string{"csma", "cmap"}
	return bench{figs: figs, unitSize: 1, workloads: []workload{
		figWorkload{name: "paper_figures", draws: 1, opt: figs},
		netWorkload{name: "scale_sparse", draws: 2, n: 1000, density: 50, dur: 6 * sim.Second, arms: arms},
		netWorkload{name: "scale_dense", draws: 1, n: 1000, density: 1000, dur: 1500 * sim.Millisecond, arms: arms},
		netWorkload{name: "mobile_churn", draws: 1, n: 1000, density: 200, dur: 400 * sim.Millisecond, arms: arms,
			mob: mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10},
			traffic: traffic.Spec{Kind: traffic.Poisson, UpMean: 200 * sim.Millisecond, DownMean: 200 * sim.Millisecond}.
				WithOfferedMbps(1, payloadBytes)},
	}}
}

// minReps is the fewest timed reps a run reports a median over.
const minReps = 3

// outcome is one run of one workload: what the driver reads.
type outcome struct {
	workload  string
	attempted int
	failures  []string
	values    map[string]float64 // metric name → reported value
	spread    map[string][]float64
	digests   [][32]byte // of rep 0, which every run repeats

	headlineSum  map[string]float64 // Σ over reps of each rep's headlines
	headlineReps int
}

func newOutcome(w workload) outcome {
	return outcome{workload: w.Name(), values: map[string]float64{}, spread: map[string][]float64{}, headlineSum: map[string]float64{}}
}

// checkRep counts rep k's operations and failures. Rep 0 is run more
// than once in every run and does identical work each time, so its
// digests must repeat.
func (o *outcome) checkRep(k int, r rep) {
	o.attempted += r.attempted
	o.failures = append(o.failures, r.failures...)
	if r.headlines != nil {
		o.headlineReps++
		for name, v := range r.headlines {
			o.headlineSum[name] += v
		}
	}
	if k != 0 {
		return
	}
	if o.digests == nil {
		o.digests = r.digests
	} else if len(r.failures) == 0 && !slices.Equal(o.digests, r.digests) {
		o.attempted++
		o.failures = append(o.failures, "result digest differs between two runs of rep 0")
	}
}

// checkHeadlines holds the mean of each headline over every testbed the
// run drew against its band: outside it the simulator still runs but no
// longer reproduces the paper, which fails the run once more.
func (o *outcome) checkHeadlines() {
	if o.headlineReps == 0 {
		return
	}
	o.attempted++
	for _, hl := range headlines {
		if v := o.headlineSum[hl.name] / float64(o.headlineReps); !(v >= hl.lo && v <= hl.hi) {
			o.failures = append(o.failures, fmt.Sprintf("headline %s = %v outside [%g, %g]", hl.name, v, hl.lo, hl.hi))
		}
	}
}

// runUntraced measures the end-to-end metrics: one untimed warm-up of
// rep 0, then timed reps 0, 1, 2, … for the given number of seconds, at
// least minReps.
func runUntraced(w workload, seed uint64, seconds float64) outcome {
	o := newOutcome(w)
	o.checkRep(0, w.Rep(seed, 0, nil))
	start := time.Now()
	var last float64
	for k := 0; k < minReps || time.Since(start).Seconds()+last <= seconds; k++ {
		t0 := time.Now()
		r := w.Rep(seed, k, nil)
		last = time.Since(t0).Seconds()
		o.checkRep(k, r)
		o.spread["wall_s"] = append(o.spread["wall_s"], r.wallS)
		o.spread["sim_s_per_wall_s"] = append(o.spread["sim_s_per_wall_s"], w.SimSeconds()/r.wallS)
		o.spread["setup_s"] = append(o.spread["setup_s"], r.setupS)
		o.spread["alloc_mb"] = append(o.spread["alloc_mb"], float64(r.allocBytes)/1e6)
		o.spread["allocs_k"] = append(o.spread["allocs_k"], float64(r.mallocs)/1e3)
		o.spread["live_heap_mb"] = append(o.spread["live_heap_mb"], r.liveHeapMB)
	}
	o.checkHeadlines()
	for name, vs := range o.spread {
		o.values[name] = median(vs)
	}
	return o
}

// median and quartiles follow Python's statistics.quantiles(n=4), the
// method the driver judges spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := float64(i*(n+1) - j*4)
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), q(2), q(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single list of what this command
// must print.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report prints the run for a reader and, as the last line, for the
// driver. It returns whether the run was correct.
func report(o outcome, w workload, named []metricSpec, stamp hostStamp, seed uint64, traced bool) bool {
	fmt.Printf("workload=%s seed=%d trace=%t\n", o.workload, seed, traced)
	fmt.Printf("host: %s\n", stamp)
	fmt.Printf("inputs: %s\n", w.Inputs())
	fmt.Printf("%-38s %-8s %-7s %14s %14s %14s %4s %6s\n", "metric", "unit", "better", "median", "q1", "q3", "n", "bound")

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	failures := o.failures
	for _, m := range named {
		v, ok := o.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			failures = append(failures, fmt.Sprintf("metric %s is missing or not finite (%v)", m.Name, v))
			v = 0
		}
		metrics[m.Name] = value{v, m.Unit}
		line := fmt.Sprintf("%-38s %-8s %-7s %14.6g", m.Name, m.Unit, m.Better, v)
		if vs := o.spread[m.Name]; len(vs) > 0 {
			q1, _, q3 := quartiles(vs)
			line += fmt.Sprintf(" %14.6g %14.6g %4d", q1, q3, len(vs))
		}
		if m.Bound > 0 {
			line = fmt.Sprintf("%-101s %5.0f%%", line, 100*m.Bound)
		}
		fmt.Println(line)
	}
	for name := range o.values {
		if _, ok := metrics[name]; !ok {
			failures = append(failures, "metric "+name+" is measured but not named in BENCHMARK.json")
		}
	}
	for i, d := range o.digests {
		fmt.Printf("digest[%d]: %x\n", i, d[:8])
	}
	for _, f := range failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	failed := len(failures)
	attempted := o.attempted
	if attempted < failed {
		attempted = failed
	}
	fmt.Printf("failed_frac: %d/%d\n", failed, attempted)
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(out))
	return failed == 0
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 0, "seconds of timed reps per run; 0 takes run_seconds from BENCHMARK.json")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		agree   = flag.Bool("agree", false, "run the untraced set twice and fail if the two disagree beyond a bound")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	b := fullBench()
	var run []workload
	for _, w := range b.workloads {
		if *name == "" || *name == w.Name() {
			run = append(run, w)
		}
	}
	if len(run) == 0 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, stray argument or bad -trace\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if *agree {
		os.Exit(b.runAgree(run, spec, *seed, *seconds))
	}
	ok := true
	for _, w := range run {
		stamp := readHostStamp()
		if *trace == 1 {
			ok = report(b.runTraced(w, *seed, *seconds), w, spec.PerLayer, stamp, *seed, true) && ok
		} else {
			ok = report(runUntraced(w, *seed, *seconds), w, spec.EndToEnd, stamp, *seed, false) && ok
		}
	}
	if !ok {
		// The result line is printed; a failed operation is data, not a
		// crash, so the exit code stays 0 for the driver to read it.
		fmt.Fprintln(os.Stderr, "bench: at least one operation failed")
	}
}
