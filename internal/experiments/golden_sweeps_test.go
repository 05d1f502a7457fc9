package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// goldenSweepsPath pins the pair sweeps and the predicted pair figures:
// every number CSThresholdSweep, StalenessSweep, OfferedLoad,
// VariableBitRates and PredictFigure return, as IEEE-754 bits in the
// order the result holds them. Regenerate an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenPairSweeps -update
var goldenSweepsPath = filepath.Join("testdata", "golden_pair_sweeps.json")

// goldenSeries is one named run of numbers, each a hex bit pattern.
type goldenSeries struct {
	Name string   `json:"name"`
	Bits []string `json:"bits"`
}

type sweepRecorder []goldenSeries

func (r *sweepRecorder) floats(name string, xs ...float64) {
	s := goldenSeries{Name: name, Bits: []string{}}
	for _, x := range xs {
		s.Bits = append(s.Bits, fmt.Sprintf("%016x", math.Float64bits(x)))
	}
	*r = append(*r, s)
}

func (r *sweepRecorder) counts(name string, ns ...uint64) {
	s := goldenSeries{Name: name, Bits: []string{}}
	for _, n := range ns {
		s.Bits = append(s.Bits, fmt.Sprintf("%016x", n))
	}
	*r = append(*r, s)
}

func (r *sweepRecorder) dist(name string, d *stats.Dist) { r.floats(name, d.Xs...) }

// pair records an experiment's per-arm aggregates and per-run flow
// goodputs.
func (r *sweepRecorder) pair(name string, ex *PairExperiment) {
	for _, arm := range ex.Arms {
		r.dist(fmt.Sprintf("%s/%s/aggregate", name, arm), ex.Dists[arm])
		var flows []float64
		for _, run := range ex.Flows[arm] {
			for _, fr := range run {
				flows = append(flows, fr.Mbps)
			}
		}
		r.floats(fmt.Sprintf("%s/%s/flows", name, arm), flows...)
	}
}

// captureSweeps runs every pair sweep at a scale small enough for the
// golden tier: three pairs, 2-second runs measured over their last half
// second, and two positions per sweep.
func captureSweeps() sweepRecorder {
	opt := Options{
		Seed:     1,
		Nodes:    50,
		Duration: 2 * sim.Second,
		Warmup:   1500 * sim.Millisecond,
		Pairs:    3,
		Rate:     phy.Rate6Mbps,
	}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	var r sweepRecorder

	cs := CSThresholdSweep(tb, opt, []float64{-90, -81})
	r.floats("cssweep/knee", cs.KneeDBm)
	for _, p := range cs.Points {
		r.dist(fmt.Sprintf("cssweep/%s/exposed", p.Arm), p.Exposed)
		r.dist(fmt.Sprintf("cssweep/%s/hidden", p.Arm), p.Hidden)
	}

	st := StalenessSweep(tb, opt, []float64{0, 3})
	for _, p := range st.Points {
		for _, arm := range st.Arms {
			r.dist(fmt.Sprintf("staleness/%g/%s", p.SpeedMps, arm), p.Dists[arm])
		}
	}

	for _, class := range []string{"exposed", "hidden"} {
		ls := OfferedLoad(tb, class, []float64{1, 4}, opt)
		for _, p := range ls.Points {
			for _, arm := range ls.Arms {
				name := fmt.Sprintf("load/%s/%g/%s", class, p.PerFlowMbps, arm)
				r.dist(name+"/aggregate", p.Aggregate[arm])
				r.dist(name+"/fairness", p.Fairness[arm])
				r.dist(name+"/latency", p.Latency[arm].Dist())
				r.counts(name+"/offered,dropped", p.Offered[arm], p.Dropped[arm])
			}
		}
	}

	for _, s := range VariableBitRates(tb, opt) {
		r.pair(fmt.Sprintf("fig20/%d", s.Rate), s.Ex)
	}

	for _, fig := range []string{"exposed", "inrange", "hidden"} {
		ex, err := PredictFigure(fig, tb, opt)
		if err != nil {
			panic(err)
		}
		r.pair("predict/"+fig, ex)
	}
	return r
}

// TestGoldenPairSweeps pins the sweeps built from the pair experiment
// bit for bit, so a refactor of their fan-out or fold must leave every
// number, and the order each result holds its samples in, unchanged.
func TestGoldenPairSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tier runs via make golden, not the -short tier")
	}
	checkGoldenSeries(t, goldenSweepsPath, captureSweeps())
}

// checkGoldenSeries compares got with the series file at path, or
// rewrites the file under -update.
func checkGoldenSeries(t *testing.T, path string, got sweepRecorder) {
	t.Helper()
	if *updateGolden {
		// One series a line keeps the file small and its diffs readable.
		data := []byte("[\n")
		for i, s := range got {
			line, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				data = append(data, ",\n"...)
			}
			data = append(data, line...)
		}
		data = append(data, "\n]\n"...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d series)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden series file (%v); run with -update to create it", err)
	}
	var want sweepRecorder
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("captured %d series, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("series %s drifted from the golden:\n  want %v\n  got  %s %v\n"+
				"if intentional, regenerate with -update", want[i].Name, want[i].Bits, got[i].Name, got[i].Bits)
		}
	}
}
