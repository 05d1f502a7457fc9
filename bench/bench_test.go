package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// smallBench is every workload at about a fiftieth of benchmark size,
// through the same code.
func smallBench() bench {
	figs := experiments.Options{
		Nodes: 50, Duration: 1500 * sim.Millisecond, Warmup: 300 * sim.Millisecond,
		Pairs: 2, Triples: 2, APRuns: 1, Meshes: 1, Rate: phy.Rate6Mbps, Workers: 2,
	}
	arms := []string{"csma", "cmap"}
	return bench{figs: figs, unitSize: 0.005, workloads: []workload{
		figWorkload{name: "paper_figures", draws: 2, opt: figs},
		netWorkload{name: "scale_sparse", draws: 2, n: 100, density: 50, dur: 2 * sim.Second, arms: arms},
		netWorkload{name: "scale_dense", draws: 2, n: 100, density: 1000, dur: 400 * sim.Millisecond, arms: arms},
		netWorkload{name: "mobile_churn", draws: 2, n: 60, density: 200, dur: 100 * sim.Millisecond, arms: arms,
			mob:     mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10, Epoch: 20 * sim.Millisecond},
			traffic: traffic.Spec{Kind: traffic.Poisson, UpMean: 20 * sim.Millisecond, DownMean: 20 * sim.Millisecond}.WithOfferedMbps(4, payloadBytes)},
	}}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted fails unless the run printed exactly the named metrics,
// every one finite.
func checkEmitted(t *testing.T, o outcome, named []metricSpec) {
	t.Helper()
	want := map[string]bool{}
	for _, m := range named {
		want[m.Name] = true
		v, ok := o.values[m.Name]
		if !ok {
			t.Errorf("%s: named in BENCHMARK.json but not emitted", m.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a finite number", m.Name, v)
		}
	}
	for name := range o.values {
		if !want[name] {
			t.Errorf("%s: emitted but not named in BENCHMARK.json", name)
		}
		if !metricName.MatchString(name) {
			t.Errorf("%q is not a metric name", name)
		}
	}
	for _, f := range o.failures {
		// The headline bands are calibrated at benchmark size; a run of
		// a few hundred simulated milliseconds need not land in them.
		if !strings.HasPrefix(f, "headline ") {
			t.Errorf("operation failed: %s", f)
		}
	}
	if o.attempted == 0 {
		t.Error("no operation attempted")
	}
}

func TestEveryWorkloadEmitsEveryNamedMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b := smallBench()
	if len(b.workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(b.workloads), len(spec.Workloads))
	}
	for i, w := range b.workloads {
		if w.Name() != spec.Workloads[i].Name || fullBench().workloads[i].Name() != w.Name() {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, w.Name(), spec.Workloads[i].Name)
		}
		t.Run(w.Name(), func(t *testing.T) {
			checkEmitted(t, runUntraced(w, 1, 0), spec.EndToEnd)
			traced := b.runTraced(w, 1, 0)
			checkEmitted(t, traced, spec.PerLayer)
			var sum float64
			for _, l := range cpuLayers {
				sum += traced.values[l+".cpu_frac"]
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu_frac sums to %v, want 1", sum)
			}
		})
	}
}

func TestBenchmarkJSONHonoursTheContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(spec.PerLayer, spec.EndToEnd...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func TestChargeLayer(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // innermost first
	}{
		{"radio", []string{"math.Pow", "repro/internal/radio.(*LogDistance).Loss", "repro/internal/medium.(*Medium).MoveNode", "repro/internal/mobility.(*Manager).step"}},
		{"phy", []string{"repro/internal/phy.(*Radio).findActive", "repro/internal/phy.(*Radio).SignalEnd", "repro/internal/medium.(*Medium).HandleEvent", "repro/internal/sim.(*Scheduler).Step"}},
		{"core", []string{"runtime.mallocgc", "runtime.mapassign", "repro/internal/core.(*observations).overlapping", "repro/internal/sim.(*Scheduler).Run"}},
		{"runner", []string{"repro/internal/runner.Map[...].func1", "runtime.goexit"}},
		{"experiments", []string{"repro/internal/experiments.runPairExperiment.func1", "repro/internal/runner.Map[...]"}},
		{"other", []string{"repro/internal/mac/conformance.Run", "testing.tRunner"}},
		{"other", []string{"repro/internal/shard.(*Engine).Run"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_gc", []string{"runtime.sweepone", "runtime.bgsweep"}},
		{"other", []string{"runtime.usleep", "runtime.sysmon"}},
		{"other", []string{"crypto/sha256.block", "main.(*network).digest"}},
		{"other", nil},
	} {
		if got := chargeLayer(c.stack); got != c.want {
			t.Errorf("chargeLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// Minimal profile.proto writer, enough to check the reader against.
func putVarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putMessage(b *bytes.Buffer, field int, body []byte) {
	putVarint(b, uint64(field)<<3|2)
	putVarint(b, uint64(len(body)))
	b.Write(body)
}

func message(fields ...func(*bytes.Buffer)) []byte {
	var b bytes.Buffer
	for _, f := range fields {
		f(&b)
	}
	return b.Bytes()
}

func varintField(field int, v uint64) func(*bytes.Buffer) {
	return func(b *bytes.Buffer) { putVarint(b, uint64(field)<<3); putVarint(b, v) }
}

func packedField(field int, vs ...uint64) func(*bytes.Buffer) {
	return func(b *bytes.Buffer) {
		var body bytes.Buffer
		for _, v := range vs {
			putVarint(&body, v)
		}
		putMessage(b, field, body.Bytes())
	}
}

func messageField(field int, body []byte) func(*bytes.Buffer) {
	return func(b *bytes.Buffer) { putMessage(b, field, body) }
}

func TestDecodeProfileAndShares(t *testing.T) {
	strtab := []string{"", "math.Pow", "repro/internal/radio.(*LogDistance).Loss", "repro/internal/medium.(*Medium).MoveNode", "repro/internal/sim.(*Scheduler).Step"}
	var fields []func(*bytes.Buffer)
	// Location 1 inlines math.Pow into radio.Loss; location 2 is
	// medium.MoveNode; location 3 is sim.Step.
	fields = append(fields,
		messageField(2, message(packedField(1, 1, 2), packedField(2, 3, 30_000_000))), // Pow ← Loss ← MoveNode
		messageField(2, message(varintField(1, 3), varintField(2, 1), varintField(2, 10_000_000))),
		messageField(4, message(varintField(1, 1), messageField(4, message(varintField(1, 1))), messageField(4, message(varintField(1, 2))))),
		messageField(4, message(varintField(1, 2), messageField(4, message(varintField(1, 3))))),
		messageField(4, message(varintField(1, 3), messageField(4, message(varintField(1, 4))))),
	)
	for id := 1; id <= 4; id++ {
		fields = append(fields, messageField(5, message(varintField(1, uint64(id)), varintField(2, uint64(id)))))
	}
	for _, s := range strtab {
		fields = append(fields, messageField(6, []byte(s)))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(message(fields...))
	zw.Close()

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || len(samples[0].funcs) != 3 || samples[0].funcs[0] != "math.Pow" || samples[0].nanos != 30_000_000 {
		t.Fatalf("decoded %+v", samples)
	}
	shares := cpuShares(samples)
	if shares["radio"] != 0.75 || shares["sim"] != 0.25 || shares["medium"] != 0 {
		t.Errorf("shares %v, want radio 0.75 and sim 0.25", shares)
	}
	if _, err := decodeProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{2, 3, 1})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestHostStampsMustMatchToCompare(t *testing.T) {
	a := hostStamp{CPU: "Xeon 2.1 GHz", NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "432b1f2"}
	if d := a.differences(a); len(d) != 0 {
		t.Errorf("a stamp differs from itself: %v", d)
	}
	b := a
	b.NumCPU, b.GOMAXPROCS = 1, 1
	if d := a.differences(b); len(d) != 2 {
		t.Errorf("differences = %v, want num_cpu and gomaxprocs", d)
	}
}

func TestPickFlowsUsesEachNodeOnce(t *testing.T) {
	m := smallBench().workloads[2].BareMedium(3)
	flows := pickFlows(m, m.NodeCount()/10+2)
	if len(flows) < 5 {
		t.Fatalf("picked %d flows on a dense 100-node disk", len(flows))
	}
	used := map[int]bool{}
	for _, f := range flows {
		if used[f.Src] || used[f.Dst] || f.Src == f.Dst {
			t.Errorf("flow %v reuses a node", f)
		}
		used[f.Src], used[f.Dst] = true, true
		best := 0.0
		m.ForEachNeighbor(f.Src, func(dst int, g float64) { best = math.Max(best, g) })
		if g, ok := m.GainMW(f.Src, f.Dst); !ok || g > best {
			t.Errorf("flow %v: receiver not audible", f)
		}
	}
}
