package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// headline is one number the paper states, and the loose band outside
// which the reproduction is called broken rather than merely off. A
// band is held against the mean over every testbed a run drew, and
// holds at every seed tried (see README.md).
type headline struct {
	name   string
	paper  float64
	lo, hi float64
}

var headlines = []headline{
	{"experiments.calibration_cmap_mbps", 5.04, 4, 6.5},
	{"experiments.calibration_dot11_mbps", 5.07, 4, 6.5},
	{"experiments.fig12_gain_cmap_cs", 2.0, 1.3, 3},
	{"experiments.fig12_gain_win1_cs", 1.5, 1.1, 3},
	{"experiments.fig14_hidden_frac", 0.08, 0, 0.5},
	{"experiments.fig14_expected_cmap", 0.896, 0.6, 1},
	{"experiments.fig17_per_sender_gain", 1.8, 0.6, 4},
	{"experiments.mesh_gain", 1.52, 0.8, 3},
}

// figWorkload is the figure suite a reader of the paper runs: every
// exported figure function over each generated testbed. opt.Seed is
// filled in per draw.
type figWorkload struct {
	name  string
	draws int // testbeds generated per rep
	opt   experiments.Options
}

func (w figWorkload) Name() string { return w.name }

// meshStretch is how much longer than the pair figures the §5.7 mesh
// runs: its source-then-relays batch cycle needs Quick's full 12 s to
// turn over, where the two-flow figures settle in a quarter of that.
const meshStretch = 4

// SimSeconds sums the nominal single simulations of one pass over the
// figure set, per draw.
func (w figWorkload) SimSeconds() float64 {
	o := w.opt
	trials := 2 + // calibration
		4*o.Pairs + 4*o.Pairs + 3*o.Pairs + // figures 12, 13, 15
		2*o.Triples + // figure 14: alone, then with the interferer
		4*3*o.APRuns + // figure 17: N = 3..6 under three arms
		6*o.APRuns + // figure 19: 2..7 senders
		3*2*o.Pairs + // figure 20: three rates, two arms
		meshStretch*2*o.Meshes
	return float64(w.draws*trials) * o.Duration.Seconds()
}

func (w figWorkload) Inputs() string {
	o := w.opt
	return fmt.Sprintf("%d x NewTestbed n=%d; Quick options duration=%gs warmup=%gs (mesh x%d) pairs=%d triples=%d ap_runs=%d meshes=%d workers=%d",
		w.draws, o.Nodes, o.Duration.Seconds(), o.Warmup.Seconds(), meshStretch, o.Pairs, o.Triples, o.APRuns, o.Meshes, o.Workers)
}

func (w figWorkload) BareMedium(seed uint64) *medium.Medium {
	return topo.NewTestbed(w.opt.Nodes, drawSeed(seed, 0)).Build(sim.NewScheduler(), sim.NewRNG(seed))
}

// floatHash digests float64 values bit for bit.
type floatHash struct{ vs []float64 }

func (h *floatHash) add(vs ...float64) { h.vs = append(h.vs, vs...) }

func (h *floatHash) dist(d *stats.Dist) {
	if d != nil {
		h.add(d.Values()...)
	}
}

func (h *floatHash) pairs(ex *experiments.PairExperiment) {
	for _, arm := range ex.Arms {
		h.dist(ex.Dists[arm])
	}
}

func (h *floatHash) sum() [32]byte {
	buf := make([]byte, 8*len(h.vs))
	for i, v := range h.vs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

// goodput reports values that cannot be goodputs: any that is NaN,
// infinite or negative, or all of them zero.
func goodput(what string, vs ...float64) []string {
	var sum float64
	for _, v := range vs {
		if !(v >= 0) || math.IsInf(v, 0) {
			return []string{fmt.Sprintf("%s: %v is not a goodput", what, v)}
		}
		sum += v
	}
	if sum == 0 {
		return []string{what + ": every arm delivered nothing"}
	}
	return nil
}

func medians(ex *experiments.PairExperiment) []float64 {
	var out []float64
	for _, arm := range ex.Arms {
		out = append(out, ex.Median(arm))
	}
	return out
}

// Rep k generates the seed's k-th testbeds and calls every figure
// function on each. Per-trial construction happens inside the figure
// calls and so inside the run phase. A headline is the mean over the
// rep's testbeds.
func (w figWorkload) Rep(seed uint64, k int, tr *tracer) rep {
	r := newRep()
	r.headlines = map[string]float64{}
	var live []any // testbeds and figure results stay live until the heap is read
	for d := 0; d < w.draws; d++ {
		w.draw(&r, drawSeed(seed, k*w.draws+d), tr, k == 0 && d == 0, &live)
	}
	r.setupS = r.spans["topo.generate"]
	r.counts["experiments.paper_err_frac"] = paperErr(r.headlines)
	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(live)
	return r
}

// draw runs the figure suite over one generated testbed.
func (w figWorkload) draw(r *rep, seed uint64, tr *tracer, sweeps bool, live *[]any) {
	opt := w.opt
	opt.Seed = seed
	got := map[string]float64{}

	t0 := time.Now()
	tb := topo.NewTestbed(opt.Nodes, seed)
	census := tb.Census()
	r.spans.add("topo.generate", t0)
	*live = append(*live, tb)
	if census.ConnectedPairs == 0 {
		r.attempted++
		r.failures = append(r.failures, "testbed: census finds no connected pair")
		return
	}

	// figure runs one exported figure call as one operation, under a
	// span, and digests what it returns.
	figure := func(name string, f func(h *floatHash) []string) {
		r.op(name, func() []string {
			t := time.Now()
			var h floatHash
			bad := f(&h)
			r.spans.add("experiments."+name, t)
			r.digests = append(r.digests, h.sum())
			return bad
		})
	}
	var fig13 *experiments.PairExperiment
	suite := func() float64 {
		t := time.Now()
		figure("calibration", func(h *floatHash) []string {
			cal := experiments.RunCalibration(tb, opt)
			*live = append(*live, cal)
			h.add(cal.CMAPMbps, cal.Dot11Mbps)
			got["experiments.calibration_cmap_mbps"] = cal.CMAPMbps
			got["experiments.calibration_dot11_mbps"] = cal.Dot11Mbps
			return nil
		})
		figure("fig12", func(h *floatHash) []string {
			ex := experiments.ExposedTerminals(tb, opt)
			*live = append(*live, ex)
			h.pairs(ex)
			got["experiments.fig12_gain_cmap_cs"] = ex.Gain(experiments.CMAP, experiments.CSMAOn)
			got["experiments.fig12_gain_win1_cs"] = ex.Gain(experiments.CMAPWin1, experiments.CSMAOn)
			return goodput("fig12 median", medians(ex)...)
		})
		figure("fig13", func(h *floatHash) []string {
			fig13 = experiments.InRangeSenders(tb, opt)
			*live = append(*live, fig13)
			h.pairs(fig13)
			return goodput("fig13 median", medians(fig13)...)
		})
		figure("fig14", func(h *floatHash) []string {
			res := experiments.HiddenInterferers(tb, opt)
			*live = append(*live, res)
			h.add(res.HiddenFrac, res.ExpectedCMAP)
			for _, p := range res.Points {
				h.add(p.MinPRR, p.NormThroughput)
			}
			got["experiments.fig14_hidden_frac"] = res.HiddenFrac
			got["experiments.fig14_expected_cmap"] = res.ExpectedCMAP
			if len(res.Points) == 0 {
				return []string{"fig14: no triple measured"}
			}
			return nil
		})
		figure("fig15", func(h *floatHash) []string {
			fig15 := experiments.HiddenTerminals(tb, opt)
			*live = append(*live, fig15)
			h.pairs(fig15)
			if fig13 != nil {
				ht := experiments.HeaderTrailer(fig13, fig15) // Figure 16
				h.dist(ht.InRangeHeader)
				h.dist(ht.InRangeEither)
				h.dist(ht.HiddenHeader)
				h.dist(ht.HiddenEither)
			}
			return goodput("fig15 median", medians(fig15)...)
		})
		figure("fig17", func(h *floatHash) []string {
			res := experiments.AccessPoint(tb, opt) // Figures 17 and 18
			*live = append(*live, res)
			var means []float64
			for _, arm := range res.Arms {
				for _, n := range res.Ns {
					means = append(means, res.Mean[arm][n])
					h.add(res.Mean[arm][n], res.Std[arm][n])
				}
				h.dist(res.PerSender[arm])
			}
			cs, cm := res.PerSender[experiments.CSMAOn].Median(), res.PerSender[experiments.CMAP].Median()
			if cs > 0 {
				got["experiments.fig17_per_sender_gain"] = cm / cs
			}
			return goodput("fig17 mean", means...)
		})
		figure("fig19", func(h *floatHash) []string {
			var measured int
			points := experiments.HeaderTrailerVsSenders(tb, opt)
			*live = append(*live, points)
			for _, p := range points {
				h.add(p.Mean, p.Median, p.P10, p.P25, p.P75, p.P90, float64(p.FlowsMeasured))
				measured += p.FlowsMeasured
			}
			if measured == 0 {
				return []string{"fig19: no flow measured"}
			}
			return nil
		})
		figure("fig20", func(h *floatHash) []string {
			var bad []string
			series := experiments.VariableBitRates(tb, opt)
			*live = append(*live, series)
			for _, rs := range series {
				h.pairs(rs.Ex)
				bad = append(bad, goodput(fmt.Sprintf("fig20 median @%g Mb/s", phy.RateByID(rs.Rate).Mbps), medians(rs.Ex)...)...)
			}
			return bad
		})
		figure("mesh", func(h *floatHash) []string {
			long := opt
			long.Duration, long.Warmup = meshStretch*opt.Duration, meshStretch*opt.Warmup
			res := experiments.Mesh(tb, long)
			*live = append(*live, res)
			h.dist(res.CMAP)
			h.dist(res.CSMA)
			got["experiments.mesh_gain"] = res.Gain()
			return goodput("mesh mean", res.CMAP.Mean(), res.CSMA.Mean())
		})
		return time.Since(t).Seconds()
	}
	r.measure(func() float64 {
		if tr == nil {
			return suite()
		}
		var wall float64
		tr.profiled(func() { wall = suite() })
		return wall
	})

	for _, hl := range headlines {
		r.headlines[hl.name] += got[hl.name] / float64(w.draws)
	}

	if tr != nil && sweeps {
		// Beyond-the-paper sweeps: timed for sizing, outside wall_s.
		sweep := func(name string, f func()) {
			t := time.Now()
			f()
			r.spans.add("experiments."+name, t)
		}
		sweep("cssweep", func() { experiments.CSThresholdSweep(tb, opt, nil) })
		sweep("loadsweep", func() {
			for _, class := range []string{"exposed", "hidden"} {
				experiments.OfferedLoad(tb, class, []float64{0.5, 1, 2, 4, 8}, opt)
			}
		})
		sweep("staleness", func() { experiments.StalenessSweep(tb, opt, []float64{0, 3}) })
	}
}

// paperErr is the mean relative distance of the reproduced headlines
// from the paper's.
func paperErr(got map[string]float64) float64 {
	var sum float64
	for _, hl := range headlines {
		sum += math.Abs(got[hl.name]-hl.paper) / hl.paper
	}
	return sum / float64(len(headlines))
}
