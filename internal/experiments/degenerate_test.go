package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// pairSamples counts the runs an experiment folded, over all its arms.
func pairSamples(ex *PairExperiment) int {
	n := 0
	for _, d := range ex.Dists {
		n += d.N()
	}
	return n
}

// TestFlowFiguresOnDegenerateTestbeds runs every flow figure on a
// testbed with no potential link and on one with three nodes, too few
// for a pair, for Figure 14's interferer to have a sink or for
// Figure 19's two disjoint flows: each must return an empty result, not
// panic. Only the calibration measures the three-node testbed's
// strongest link.
func TestFlowFiguresOnDegenerateTestbeds(t *testing.T) {
	t.Parallel()
	opt := Quick(1)
	opt.Duration = 1 * sim.Second
	opt.Warmup = 500 * sim.Millisecond
	opt.Pairs, opt.Triples, opt.APRuns, opt.Meshes = 2, 3, 2, 2
	figures := []struct {
		name    string
		samples func(tb *topo.Testbed) int
	}{
		{"calibration", func(tb *topo.Testbed) int {
			if RunCalibration(tb, opt) == (Calibration{}) {
				return 0
			}
			return 1
		}},
		{"fig12", func(tb *topo.Testbed) int { return pairSamples(ExposedTerminals(tb, opt)) }},
		{"fig13", func(tb *topo.Testbed) int { return pairSamples(InRangeSenders(tb, opt)) }},
		{"fig14", func(tb *topo.Testbed) int { return len(HiddenInterferers(tb, opt).Points) }},
		{"fig15", func(tb *topo.Testbed) int { return pairSamples(HiddenTerminals(tb, opt)) }},
		{"fig17", func(tb *topo.Testbed) int {
			n := 0
			for _, d := range AccessPoint(tb, opt).PerSender {
				n += d.N()
			}
			return n
		}},
		{"fig19", func(tb *topo.Testbed) int {
			n := 0
			for _, p := range HeaderTrailerVsSenders(tb, opt) {
				n += p.FlowsMeasured
			}
			return n
		}},
		{"fig20", func(tb *topo.Testbed) int {
			n := 0
			for _, s := range VariableBitRates(tb, opt) {
				n += pairSamples(s.Ex)
			}
			return n
		}},
		{"mesh", func(tb *topo.Testbed) int {
			m := Mesh(tb, opt)
			return m.CMAP.N() + m.CSMA.N()
		}},
		{"cssweep", func(tb *topo.Testbed) int {
			n := 0
			for _, p := range CSThresholdSweep(tb, opt, []float64{-90}).Points {
				n += p.Exposed.N() + p.Hidden.N()
			}
			return n
		}},
		{"staleness", func(tb *topo.Testbed) int {
			n := 0
			for _, p := range StalenessSweep(tb, opt, []float64{0, 3}).Points {
				n += pairSamples(p.PairExperiment)
			}
			return n
		}},
		{"loadsweep", func(tb *topo.Testbed) int {
			n := 0
			for _, p := range OfferedLoad(tb, "exposed", []float64{1}, opt).Points {
				for _, d := range p.Aggregate {
					n += d.N()
				}
			}
			return n
		}},
	}
	for _, tb := range []struct {
		name    string
		tb      *topo.Testbed
		hasLink bool
	}{
		{"no potential link", topo.UniformDisk(10, 0.01, 1).Testbed(), false},
		{"three nodes", topo.NewTestbed(3, 1), true},
	} {
		for _, f := range figures {
			t.Run(tb.name+"/"+f.name, func(t *testing.T) {
				want := 0
				if f.name == "calibration" && tb.hasLink {
					want = 1
				}
				if got := f.samples(tb.tb); got != want {
					t.Errorf("%d samples, want %d", got, want)
				}
			})
		}
	}
}
