package experiments

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// goldenFlowsPath pins the flow figures that are not pair sweeps: every
// number RunCalibration, HiddenInterferers, AccessPoint,
// HeaderTrailerVsSenders and SimulateScreenGrid return, as IEEE-754
// bits in the order the result holds them. Regenerate an intentional
// change with:
//
//	go test ./internal/experiments -run TestGoldenFlowFigures -update
var goldenFlowsPath = filepath.Join("testdata", "golden_flow_figures.json")

// captureFlowFigures runs the flow figures at a scale small enough for
// the golden tier: three triples and three runs per AP count and sender
// count, 2-second runs measured over their last second, and two loads
// over the standard screen scenarios.
func captureFlowFigures(workers int) sweepRecorder {
	opt := Quick(1)
	opt.Duration = 2 * sim.Second
	opt.Warmup = 1 * sim.Second
	opt.Triples = 3
	opt.APRuns = 3
	opt.Workers = workers
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	var r sweepRecorder

	cal := RunCalibration(tb, opt)
	r.floats("calibration", cal.CMAPMbps, cal.Dot11Mbps)

	hi := HiddenInterferers(tb, opt)
	for i, p := range hi.Points {
		r.counts(fmt.Sprintf("fig14/%d/triple", i), uint64(p.Triple.Src), uint64(p.Triple.Dst), uint64(p.Triple.Interferer))
		r.floats(fmt.Sprintf("fig14/%d/minprr,norm", i), p.MinPRR, p.NormThroughput)
	}
	r.floats("fig14/hiddenfrac,expected", hi.HiddenFrac, hi.ExpectedCMAP)

	ap := AccessPoint(tb, opt)
	for _, arm := range ap.Arms {
		for _, n := range ap.Ns {
			r.floats(fmt.Sprintf("fig17/%s/%d/mean,std", arm, n), ap.Mean[arm][n], ap.Std[arm][n])
		}
		r.dist(fmt.Sprintf("fig18/%s", arm), ap.PerSender[arm])
	}

	for _, p := range HeaderTrailerVsSenders(tb, opt) {
		r.counts(fmt.Sprintf("fig19/%d/senders,flows", p.Senders), uint64(p.Senders), uint64(p.FlowsMeasured))
		r.floats(fmt.Sprintf("fig19/%d/stats", p.Senders),
			p.Mean, p.Median, p.P10, p.P25, p.P75, p.P90)
	}

	scens := StandardScreenScenarios(opt.Seed)
	loads := []float64{1, 4}
	grid, _, err := SimulateScreenGrid(scens, loads, opt)
	if err != nil {
		panic(err)
	}
	arms, _ := screenArms(opt)
	for _, sc := range scens {
		for _, load := range loads {
			for _, arm := range arms {
				r.floats(fmt.Sprintf("screen/%s/%g/%s", sc.Name, load, arm), grid[sc.Name][load][arm])
			}
		}
	}
	return r
}

// TestGoldenFlowFigures pins the calibration, Figures 14 and 17–19 and
// the screen grid bit for bit at one and at four workers, so a refactor
// of their trial lists, fan-out or fold must leave every number, and
// the order each result holds its samples in, unchanged.
func TestGoldenFlowFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden tier runs via make golden, not the -short tier")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGoldenSeries(t, goldenFlowsPath, captureFlowFigures(workers))
		})
	}
}
