// Command cmapbench regenerates every table and figure of the paper's
// evaluation (§4.2, §5.2–§5.8) and prints paper-expected versus measured
// values.
//
// Usage:
//
//	cmapbench [-seed N] [-scale quick|mid|paper] [-only fig12,mesh,loadsweep,cssweep,staleness,...] [-parallel W] [-trials N] [-progress]
//	          [-arms csma,cmap,rtscts,cs@-82,...] [-traffic cbr|poisson|onoff] [-load 0.5,1,2,4,8]
//	          [-mobility waypoint@3|walk@1.5|vehicular@20] [-resume DIR]
//	          [-analytic [-analytic-verify]] [-benchjson] [-cpuprofile FILE] [-memprofile FILE]
//
// The suite is the sections table below; -only picks its rows by key.
//
// "paper" runs the full 100-second, 50-topology methodology (slow);
// "mid", the default, runs 30 s over 30 topologies per figure and is
// the scale ROADMAP quotes; "quick" is CI-sized.
//
// -arms overrides the arm set of every protocol-comparison figure with
// a comma-separated list of internal/mac registry names and specs — any
// registered arm qualifies, including cs@<dBm> carrier-sense-threshold
// members and cmap/csma specs, so `-arms csma,cmap:win=1,cmap:win=2,cmap`
// is Figure 12's window sweep (a spec whose canonical form is a fixed
// name runs as that arm: cmap:win=1 is cmap1). `-arms list` prints the
// fixed names and the three family syntaxes. Figures keep their
// paper-default arms when the flag is unset. The cssweep section (its
// own figure, beyond the paper) sweeps the cs@<dBm> family across
// exposed and hidden pairs and flags the threshold knee.
//
// -mobility moves every flow figure's nodes with the given motion
// model ("<model>@<speed m/s>[@roamM]", models waypoint | walk |
// vehicular); the medium rebuilds a node's delivery list when it is
// next read after nodes move. The staleness section (-only staleness, its own figure
// beyond the paper) ignores the flag and sweeps waypoint speed itself:
// goodput versus node speed for CMAP against csma and rtscts on the
// exposed pairs, showing conflict-map staleness erode CMAP's advantage.
//
// -traffic replaces the saturated senders of every flow-based figure
// (calibration, the pair figures, interferers, APs, sender sweep,
// bit-rates) with the given arrival process at the first -load value
// Mb/s per flow; the §5.7 mesh keeps its phase-controlled batch
// workload and says so. The load-sweep figure (-only loadsweep) always
// runs the whole -load list, Poisson by default, on exposed and hidden
// pairs.
//
// Trials fan out across -parallel worker goroutines (default: all CPUs);
// the numbers are bit-identical at every worker count, so -parallel only
// changes wall-clock time. -trials overrides every per-experiment
// topology/run count (Pairs, Triples, APRuns — the runs per AP count of
// Figures 17/18 and per sender count of Figure 19 — and Meshes) for
// custom sweeps.
//
// -resume DIR records each finished section (and each load-sweep trial)
// in a campaign directory; a killed run restarted with the same flags
// replays what is recorded, marked [cached], and simulates only the
// rest. A directory recorded under other result-changing flags is refused.
//
// -analytic skips the figure suite and screens the standard
// (scenario × load) grid through the analytic conflict-graph oracle
// (internal/analytic) in milliseconds, tagging the points that merit
// full simulation; -analytic-verify additionally simulates the whole
// grid to report the oracle's agreement and wall-clock advantage.
//
// -benchjson skips the figure suite, runs the node-count scaling
// benchmarks instead, five times each, and writes
// BENCH_<git-short-sha>.json (median ns/op with its quartiles, B/op,
// allocs/op per benchmark) so the perf trajectory stays
// machine-readable across PRs.
//
// -cpuprofile/-memprofile write pprof profiles covering whatever the
// invocation runs (the figure suite or, with -benchjson, the scaling
// benchmarks), on every exit path once the flags have parsed; `make
// profile` is the canonical invocation.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// parseLoads parses the comma-separated -load list of Mb/s values. Each
// must give kind's arrival process (the load sweep's Poisson when kind
// is Saturated) a rate the 1 ns clock can run.
func parseLoads(s string, kind traffic.Kind) ([]float64, error) {
	if kind == traffic.Saturated {
		kind = traffic.Poisson
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err == nil {
			// Validate also rejects NaN, ±Inf and non-positive loads.
			err = traffic.Spec{Kind: kind}.WithOfferedMbps(v, mac.DefaultPayload).Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("bad -load entry %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// suite is what every section runs against.
type suite struct {
	tb    *topo.Testbed
	opt   experiments.Options
	loads []float64
	camp  *checkpoint.Campaign // the -resume campaign, nil without one
	// fig13 and fig15 are run by whichever section reads them first:
	// Figures 13 and 15 print them, Figure 16 is computed from both.
	fig13, fig15 *experiments.PairExperiment
	err          error // set by a section that could not finish; the run stops there
}

func (s *suite) inRange() *experiments.PairExperiment {
	if s.fig13 == nil {
		s.fig13 = experiments.InRangeSenders(s.tb, s.opt)
	}
	return s.fig13
}

func (s *suite) hidden() *experiments.PairExperiment {
	if s.fig15 == nil {
		s.fig15 = experiments.HiddenTerminals(s.tb, s.opt)
	}
	return s.fig15
}

// section is one row of the figure suite: -only selects it by key, and
// run prints its body to w.
type section struct {
	key, title string
	// shows names sections printed whenever this one is selected:
	// Figure 16 is read against the two figures it is derived from.
	shows []string
	run   func(w io.Writer, s *suite)
}

// sections is the whole suite, in print order.
var sections = []section{
	{key: "census", title: "§5.1 testbed census", run: func(w io.Writer, s *suite) {
		c := s.tb.Census()
		fmt.Fprintf(w, "connected ordered pairs: %d (paper: 2162)\n", c.ConnectedPairs)
		fmt.Fprintf(w, "PRR<0.1: %.0f%% (paper 68%%)   0.1≤PRR<1: %.0f%% (paper 12%%)   PRR=1: %.0f%% (paper 20%%)\n",
			100*c.FracLow, 100*c.FracMid, 100*c.FracFull)
		fmt.Fprintf(w, "degree over usable links: mean %.1f median %.1f (paper 15.2 / 17)\n", c.MeanDegree, c.MedianDegree)
	}},
	{key: "calibration", title: "§4.2 single-link calibration", run: func(w io.Writer, s *suite) {
		cal := experiments.RunCalibration(s.tb, s.opt)
		fmt.Fprintf(w, "CMAP %.2f Mb/s vs 802.11 %.2f Mb/s (paper: 5.04 vs 5.07)\n",
			cal.CMAPMbps, cal.Dot11Mbps)
	}},
	{key: "fig12", title: "Figure 12 — exposed terminals", run: func(w io.Writer, s *suite) {
		ex := experiments.ExposedTerminals(s.tb, s.opt)
		fmt.Fprint(w, ex.Format())
		if ex.Ran(experiments.CMAP, experiments.CMAPWin1, experiments.CSMAOn) {
			fmt.Fprintf(w, "median gain CMAP/CS = %.2fx (paper ≈2x); CMAP win=1 / CS = %.2fx (paper ≈1.5x)\n",
				ex.Gain(experiments.CMAP, experiments.CSMAOn),
				ex.Gain(experiments.CMAPWin1, experiments.CSMAOn))
		}
	}},
	{key: "fig13", title: "Figure 13 — senders in range", run: func(w io.Writer, s *suite) {
		fmt.Fprint(w, s.inRange().Format())
	}},
	{key: "fig14", title: "Figure 14 / §5.4 — hidden interferers", run: func(w io.Writer, s *suite) {
		res := experiments.HiddenInterferers(s.tb, s.opt)
		fmt.Fprintf(w, "%d (S,R,I) triples; bottom-left-quadrant fraction = %.3f (paper 0.08)\n",
			len(res.Points), res.HiddenFrac)
		fmt.Fprintf(w, "expected CMAP normalised throughput = %.3f (paper 0.896)\n", res.ExpectedCMAP)
	}},
	{key: "fig15", title: "Figure 15 — hidden terminals", run: func(w io.Writer, s *suite) {
		fmt.Fprint(w, s.hidden().Format())
	}},
	{key: "fig16", title: "Figure 16 — header/trailer salvage", shows: []string{"fig13", "fig15"}, run: func(w io.Writer, s *suite) {
		fig13, fig15 := s.inRange(), s.hidden()
		if !fig13.Ran(experiments.CMAP) || !fig15.Ran(experiments.CMAP) {
			fmt.Fprintln(w, "(fig16 skipped: needs the cmap arm in figures 13 and 15; add cmap to -arms)")
			return
		}
		fmt.Fprint(w, experiments.HeaderTrailer(fig13, fig15).Format())
	}},
	{key: "fig17", title: "Figures 17+18 — access-point topology", run: func(w io.Writer, s *suite) {
		res := experiments.AccessPoint(s.tb, s.opt)
		fmt.Fprint(w, res.Format())
		for _, n := range res.Ns {
			cs, cm := res.Mean[experiments.CSMAOn][n], res.Mean[experiments.CMAP][n]
			if cs > 0 && cm > 0 {
				fmt.Fprintf(w, "N=%d aggregate gain CMAP/CS = %.2fx (paper 1.21–1.47x)\n", n, cm/cs)
			}
		}
		if csd, cmd := res.PerSender[experiments.CSMAOn], res.PerSender[experiments.CMAP]; csd != nil && cmd != nil && csd.Median() > 0 {
			fmt.Fprintf(w, "per-sender median gain = %.2fx (paper 1.8x)\n", cmd.Median()/csd.Median())
		}
	}},
	{key: "fig19", title: "Figure 19 — header/trailer vs concurrent senders", run: func(w io.Writer, s *suite) {
		fmt.Fprintf(w, "%3s %8s %8s %8s %8s %8s %8s\n", "k", "mean", "p10", "p25", "median", "p75", "p90")
		for _, p := range experiments.HeaderTrailerVsSenders(s.tb, s.opt) {
			fmt.Fprintf(w, "%3d %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				p.Senders, p.Mean, p.P10, p.P25, p.Median, p.P75, p.P90)
		}
		fmt.Fprintln(w, "(paper: median ≈flat, 10th percentile drops sharply)")
	}},
	{key: "fig20", title: "Figure 20 — variable bit-rates", run: func(w io.Writer, s *suite) {
		for _, rs := range experiments.VariableBitRates(s.tb, s.opt) {
			if !rs.Ex.Ran(experiments.CSMAOn, experiments.CMAP) {
				fmt.Fprint(w, rs.Ex.Format())
				continue
			}
			fmt.Fprintf(w, "@%g Mb/s: CS median %.2f, CMAP median %.2f → %.2fx\n",
				phy.RateByID(rs.Rate).Mbps,
				rs.Ex.Median(experiments.CSMAOn), rs.Ex.Median(experiments.CMAP),
				rs.Ex.Gain(experiments.CMAP, experiments.CSMAOn))
		}
		fmt.Fprintln(w, "(paper: CMAP keeps winning at 12 and 18 Mb/s)")
	}},
	{key: "mesh", title: "§5.7 — content-dissemination mesh", run: func(w io.Writer, s *suite) {
		if s.opt.Traffic.Kind != traffic.Saturated {
			// The mesh runs the paper's phase-controlled batch
			// dissemination, not per-flow arrival processes; say so
			// rather than mislabel saturated numbers as unsaturated.
			fmt.Fprintln(w, "(note: -traffic does not apply to the §5.7 batch workload; mesh runs saturated batches)")
		}
		if s.opt.Mobility.Active() {
			fmt.Fprintln(w, "(note: -mobility does not apply to the §5.7 batch workload; mesh nodes stay put)")
		}
		meshOpt := s.opt
		meshOpt.Traffic = traffic.Saturate()
		res := experiments.Mesh(s.tb, meshOpt)
		fmt.Fprintf(w, "CMAP %.2f Mb/s vs CSMA %.2f Mb/s → gain %.2fx (paper 1.52x)\n",
			res.CMAP.Mean(), res.CSMA.Mean(), res.Gain())
	}},
	{key: "cssweep", title: "CS-threshold sweep — goodput vs carrier-sense threshold (beyond the paper)", run: func(w io.Writer, s *suite) {
		fmt.Fprint(w, experiments.CSThresholdSweep(s.tb, s.opt, nil).Format())
	}},
	{key: "staleness", title: "Staleness sweep — goodput vs node speed (beyond the paper)", run: func(w io.Writer, s *suite) {
		fmt.Fprint(w, experiments.StalenessSweep(s.tb, s.opt, nil).Format())
	}},
	{key: "loadsweep", title: "Load sweep — goodput/latency vs offered load (beyond the paper)", run: func(w io.Writer, s *suite) {
		// Under -resume the sweep additionally records every
		// (topology × arm × load × pair) trial in the campaign
		// manifest as it completes, so a kill mid-sweep loses at most
		// one trial rather than the whole figure.
		for _, class := range []string{"exposed", "hidden"} {
			sweep, err := experiments.OfferedLoadCampaign(s.tb, class, s.loads, s.opt, s.camp)
			if err != nil {
				s.err = err
				return
			}
			fmt.Fprint(w, sweep.Format())
		}
		fmt.Fprintln(w, "(expected: goodput tracks load below saturation; past the knee CMAP"+
			" out-delivers carrier sense on exposed pairs and matches it on hidden ones)")
	}},
}

// step prints one section. Under -resume, a section that already
// finished in a prior run replays its recorded text from the campaign
// manifest instead of re-simulating, and a section that completes now
// is recorded (under "section/<title>") for the next restart. The
// loadsweep section is additionally resumable at trial granularity
// inside the section.
func (s *suite) step(w io.Writer, sec section) error {
	fmt.Fprintf(w, "== %s ==\n", sec.title)
	t0 := time.Now()
	key := "section/" + sec.title
	if s.camp != nil {
		if raw, ok := s.camp.Done(key); ok {
			var text string
			if err := json.Unmarshal(raw, &text); err == nil {
				fmt.Fprintf(w, "%s[cached]\n\n", text)
				return nil
			}
		}
	}
	var text bytes.Buffer
	sec.run(io.MultiWriter(w, &text), s)
	if s.err != nil {
		return s.err
	}
	if s.camp != nil {
		if err := s.camp.Complete(key, text.String()); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "[%.1fs]\n\n", time.Since(t0).Seconds())
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when a file or campaign
// operation fails, 2 on a usage error. It returns rather than exits so
// the profile defers flush on every path.
func run(args []string, stdout, stderr io.Writer) int {
	keys := make([]string, len(sections))
	for i, sec := range sections {
		keys[i] = sec.key
	}
	fl := flag.NewFlagSet("cmapbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	seed := fl.Uint64("seed", 1, "master seed (same seed → identical numbers)")
	scale := fl.String("scale", "mid", "quick | mid | paper")
	only := fl.String("only", "", "comma-separated subset: "+strings.Join(keys, ","))
	armList := fl.String("arms", "", "override figure arm sets with registry names or specs (e.g. csma,cmap,rtscts,cs@-82,cmap:win=2); \"list\" prints all arms")
	trafficKind := fl.String("traffic", "", "arrival model for every figure: saturated | cbr | poisson | onoff (default saturated)")
	loadList := fl.String("load", "0.5,1,2,4,8", "per-flow offered loads in Mb/s: the sweep uses the list, other figures the first value")
	parallel := fl.Int("parallel", 0, "worker goroutines per experiment (0 = all CPUs, 1 = serial)")
	trials := fl.Int("trials", 0, "override per-experiment trial counts (Pairs/Triples/Meshes, and APRuns: runs per AP count in Figures 17-18 and per sender count in Figure 19); 0 keeps the scale's defaults")
	progress := fl.Bool("progress", false, "report per-experiment trial progress on stderr")
	analyticScreen := fl.Bool("analytic", false, "screen the standard (scenario × load) grid through the analytic oracle and exit")
	analyticVerify := fl.Bool("analytic-verify", false, "with -analytic: also simulate the full grid and report agreement and speedup")
	benchJSON := fl.Bool("benchjson", false, "run the scaling benchmarks, write BENCH_<git-short-sha>.json, and exit")
	mobilityFlag := fl.String("mobility", "", "move every figure's nodes: <model>@<speed m/s>[@roamM] with model waypoint|walk|vehicular")
	resumeDir := fl.String("resume", "", "campaign directory: record section and load-sweep-point completion there and resume a killed run")
	cpuProfile := fl.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fl.String("memprofile", "", "write an end-of-run heap profile to this file")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", what, err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *trials < 0:
		return usage("-trials %d: want a non-negative count (0 keeps the scale's defaults)", *trials)
	case *parallel < 0:
		return usage("-parallel %d: want a non-negative worker count (0 = all CPUs)", *parallel)
	case *analyticVerify && !*analyticScreen:
		return usage("-analytic-verify extends -analytic; it does nothing without it")
	case *resumeDir != "" && (*analyticScreen || *benchJSON):
		return usage("-resume records the figure suite; it cannot be combined with -analytic or -benchjson")
	}
	// -only picks rows of the table by key (unset picks all of them), and
	// a row brings the rows it shows along.
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			i := slices.Index(keys, strings.TrimSpace(k))
			if i < 0 {
				return usage("-only %q: no such section (valid: %s)", k, strings.Join(keys, ","))
			}
			want[keys[i]] = true
			for _, shown := range sections[i].shows {
				want[shown] = true
			}
		}
	}

	if *benchJSON {
		if err := writeBenchJSON(stdout, stderr); err != nil {
			return fail("benchjson", err)
		}
		return 0
	}

	if *armList == "list" {
		for _, name := range mac.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	var opt experiments.Options
	switch *scale {
	case "quick":
		opt = experiments.Quick(*seed)
	case "mid":
		opt = experiments.Defaults(*seed)
		opt.Duration = 30 * sim.Second
		opt.Warmup = 12 * sim.Second
		opt.Pairs = 30
		opt.Triples = 200
		opt.APRuns = 6
		opt.Meshes = 10
	case "paper":
		opt = experiments.Defaults(*seed)
	default:
		return usage("unknown scale %q", *scale)
	}
	opt.Workers = *parallel
	if *mobilityFlag != "" {
		mob, err := mobility.ParseSpec(*mobilityFlag)
		if err != nil {
			return usage("%v", err)
		}
		opt.Mobility = mob
	}
	if *trials > 0 {
		opt.Pairs = *trials
		opt.Triples = *trials
		opt.APRuns = *trials
		opt.Meshes = *trials
	}
	if *progress {
		opt.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	if *armList != "" {
		// Validated here so a typo is a CLI error listing every registered
		// name rather than a panic mid-figure.
		arms, err := experiments.ParseArms(*armList)
		if err != nil {
			return usage("%v", err)
		}
		opt.Arms = arms
	}

	kind, err := traffic.ParseKind(*trafficKind)
	if err != nil {
		return usage("%v", err)
	}
	loads, err := parseLoads(*loadList, kind)
	if err != nil {
		return usage("%v", err)
	}
	if kind != traffic.Saturated {
		// Both MAC defaults send mac.DefaultPayload. WithOfferedMbps makes
		// -load mean long-run offered load for duty-cycled kinds too.
		opt.Traffic = traffic.Spec{Kind: kind}.WithOfferedMbps(loads[0], mac.DefaultPayload)
		fmt.Fprintf(stdout, "traffic: %v arrivals at %.2f Mb/s offered per flow\n",
			kind, opt.Traffic.OfferedMbps(mac.DefaultPayload))
	}

	if *analyticScreen {
		screenLoads := loads
		loadSet := false
		fl.Visit(func(f *flag.Flag) { loadSet = loadSet || f.Name == "load" })
		if !loadSet {
			// The screen is near-free, so default to a denser sweep than
			// the simulated figures use: 16 loads × the 7 standard
			// scenarios ≈ a 112-point grid.
			screenLoads = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 10, 12, 16}
		}
		if err := runAnalyticScreen(stdout, opt, screenLoads, *analyticVerify); err != nil {
			return fail("analytic", err)
		}
		return 0
	}

	s := &suite{opt: opt, loads: loads}
	if *resumeDir != "" {
		// The hash covers everything that determines results: Options
		// (its Workers and Progress fields are tagged out of the JSON —
		// results are bit-identical at every worker count) and the load
		// list. The -only selection is deliberately absent: completion is
		// recorded per section, so a resumed run may narrow or widen it.
		s.camp, err = checkpoint.OpenCampaign(*resumeDir, checkpoint.ConfigHash(struct {
			Options experiments.Options
			Loads   []float64
		}{opt, loads}))
		if err != nil {
			return fail("campaign", err)
		}
	}

	fmt.Fprintf(stdout, "cmapbench — CMAP (NSDI 2008) evaluation reproduction\n")
	fmt.Fprintf(stdout, "seed=%d scale=%s duration=%v pairs=%d workers=%d\n\n",
		*seed, *scale, time.Duration(opt.Duration), opt.Pairs,
		runner.Config{Workers: opt.Workers}.EffectiveWorkers())
	if s.camp != nil {
		if n := len(s.camp.Keys()); n > 0 {
			fmt.Fprintf(stderr, "campaign %s: %d recorded points, finished work replays from the manifest\n", s.camp.Dir(), n)
		}
	}

	s.tb = topo.NewTestbed(opt.Nodes, opt.Seed)
	for _, sec := range sections {
		if len(want) > 0 && !want[sec.key] {
			continue
		}
		if err := s.step(stdout, sec); err != nil {
			return fail(sec.key, err)
		}
	}
	return 0
}

// runAnalyticScreen is the -analytic mode: evaluate the standard
// (scenario × load) grid through the conflict-graph oracle, print the
// screen, and — with -analytic-verify — simulate the identical grid to
// measure the oracle's agreement and wall-clock advantage.
func runAnalyticScreen(w io.Writer, opt experiments.Options, loads []float64, verify bool) error {
	scens := experiments.StandardScreenScenarios(opt.Seed)
	fmt.Fprintf(w, "== analytic screen — %d scenarios × %d loads ==\n", len(scens), len(loads))
	screen, err := experiments.AnalyticScreen(scens, loads, opt)
	if err != nil {
		return err
	}
	fmt.Fprint(w, screen.Format())
	if !verify {
		return nil
	}

	fmt.Fprintf(w, "\nsimulating the same %d-point grid (duration %v per point per arm)...\n",
		len(screen.Points), time.Duration(opt.Duration))
	simulated, simElapsed, err := experiments.SimulateScreenGrid(scens, loads, opt)
	if err != nil {
		return err
	}
	var flaggedErr, clearErr, worst float64
	var flaggedN, clearN int
	var worstAt string
	for _, p := range screen.Points {
		for _, arm := range []experiments.Protocol{experiments.CSMAOn, experiments.CMAP} {
			sim := simulated[p.Scenario][p.LoadMbps][arm]
			if sim <= 0 {
				continue
			}
			rel := math.Abs(p.Preds[arm]-sim) / sim
			if p.Simulate {
				flaggedErr += rel
				flaggedN++
			} else {
				clearErr += rel
				clearN++
			}
			if rel > worst {
				worst = rel
				worstAt = fmt.Sprintf("%s load=%.2g %v", p.Scenario, p.LoadMbps, arm)
			}
		}
	}
	if clearN > 0 {
		fmt.Fprintf(w, "screen-decided points: mean |rel err| = %.1f%% over %d arm-points\n",
			100*clearErr/float64(clearN), clearN)
	}
	if flaggedN > 0 {
		fmt.Fprintf(w, "flagged points:        mean |rel err| = %.1f%% over %d arm-points (that is why they are flagged)\n",
			100*flaggedErr/float64(flaggedN), flaggedN)
	}
	fmt.Fprintf(w, "worst point: %s (%.1f%%)\n", worstAt, 100*worst)
	speedup := float64(simElapsed) / float64(screen.Elapsed)
	fmt.Fprintf(w, "wall clock: screen %v vs simulation %v → %.0f× faster\n",
		screen.Elapsed.Round(time.Millisecond), simElapsed.Round(time.Millisecond), speedup)
	return nil
}

// benchRecord is one benchmark's result in the JSON trajectory file:
// the median of benchRuns runs by ns/op (its iteration count and
// allocation figures are that run's) and the quartiles of ns/op across
// the runs, which is what lets benchdiff tell a regression from a host
// that drifted between two single shots.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	NsPerOpQ1   float64 `json:"ns_op_q1"`
	NsPerOpQ3   float64 `json:"ns_op_q3"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// benchRuns is how many passes -benchjson makes over the suite.
const benchRuns = 5

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// summarize folds the runs of one benchmark into its record. runs is
// sorted in place.
func summarize(name string, runs []testing.BenchmarkResult) benchRecord {
	slices.SortFunc(runs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(nsPerOp(a), nsPerOp(b)) })
	var d stats.Dist
	for _, r := range runs {
		d.Add(nsPerOp(r))
	}
	mid := runs[len(runs)/2]
	return benchRecord{
		Name:        name,
		Iterations:  mid.N,
		NsPerOp:     d.Median(),
		NsPerOpQ1:   d.Percentile(25),
		NsPerOpQ3:   d.Percentile(75),
		BytesPerOp:  mid.AllocedBytesPerOp(),
		AllocsPerOp: mid.AllocsPerOp(),
	}
}

// benchFile is the BENCH_<sha>.json schema. CPU, NumCPU and GOMAXPROCS
// are the host stamp benchdiff compares before it lets a delta gate.
type benchFile struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	CPU        string        `json:"cpu"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// cpuModel reads the processor's model name, "unknown" where the
// platform does not say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitShortSHA resolves the current commit, falling back to the binary's
// embedded VCS stamp and then to "dev" outside any repository.
func gitShortSHA() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "dev"
}

// writeBenchJSON runs the scaling suite through testing.Benchmark,
// benchRuns passes over it, and writes the machine-readable trajectory
// file.
func writeBenchJSON(stdout, stderr io.Writer) error {
	out := benchFile{
		Commit:     gitShortSHA(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// Round-robin, not five in a row: a row's runs are then spread over
	// the whole session, so its quartiles take in the minutes-scale drift
	// of a shared host and not only back-to-back jitter.
	suite := experiments.ScaleBenchmarks()
	runs := make([][]testing.BenchmarkResult, len(suite))
	for pass := 1; pass <= benchRuns; pass++ {
		for i, sb := range suite {
			fmt.Fprintf(stderr, "bench %d/%d %s...\n", pass, benchRuns, sb.Name)
			runs[i] = append(runs[i], testing.Benchmark(sb.Run))
		}
	}
	for i, sb := range suite {
		out.Benchmarks = append(out.Benchmarks, summarize(sb.Name, runs[i]))
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", out.Commit)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", path, len(out.Benchmarks))
	return nil
}
