// Command cmapbench regenerates every table and figure of the paper's
// evaluation (§4.2, §5.2–§5.8) and prints paper-expected versus measured
// values. It is the source of EXPERIMENTS.md.
//
// Usage:
//
//	cmapbench [-seed N] [-scale quick|mid|paper] [-only fig12,mesh,loadsweep,cssweep,staleness,...] [-parallel W] [-trials N] [-progress]
//	          [-arms csma,cmap,rtscts,cs@-82,...] [-traffic cbr|poisson|onoff] [-load 0.5,1,2,4,8] [-shards N]
//	          [-mobility waypoint@3|walk@1.5|vehicular@20]
//
// -shards runs every figure's flow simulations on the sharded engine
// (internal/shard) with N shards per run — deterministic, figure-level
// equivalent to serial, and a whole-simulation parallelism axis that
// composes with the -parallel trial fan-out.
//
// "paper" runs the full 100-second, 50-topology methodology (slow);
// "mid" is the EXPERIMENTS.md scale (30 s runs); "quick" is CI-sized.
//
// -arms overrides the arm set of every protocol-comparison figure with
// a comma-separated list of internal/mac registry names — any
// registered arm qualifies, including cs@<dBm> carrier-sense-threshold
// family members; `-arms list` prints every name. Figures keep their
// paper-default arms when the flag is unset. The cssweep section (its
// own figure, beyond the paper) sweeps the cs@<dBm> family across
// exposed and hidden pairs and flags the threshold knee.
//
// -mobility moves every flow figure's nodes with the given motion
// model ("<model>@<speed m/s>[@roamM]", models waypoint | walk |
// vehicular) on the serial engine (incompatible with -shards); the
// medium patches per-node delivery lists incrementally as nodes move.
// The staleness section (-only staleness, its own figure beyond the
// paper) ignores the flag and sweeps waypoint speed itself: goodput
// versus node speed for CMAP against csma and rtscts on the exposed
// pairs, showing conflict-map staleness erode CMAP's advantage.
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
// topology/run count (Pairs, Triples, APRuns, Meshes) for custom sweeps.
//
// -analytic skips the figure suite and screens the standard
// (scenario × load) grid through the analytic conflict-graph oracle
// (internal/analytic) in milliseconds, tagging the points that merit
// full simulation; -analytic-verify additionally simulates the whole
// grid to report the oracle's agreement and wall-clock advantage.
//
// -benchjson skips the figure suite, runs the node-count scaling
// benchmarks instead, and writes BENCH_<git-short-sha>.json (ns/op,
// B/op, allocs/op per benchmark) so the perf trajectory stays
// machine-readable across PRs.
//
// -cpuprofile/-memprofile write pprof profiles covering whatever the
// invocation runs (the figure suite or, with -benchjson, the scaling
// benchmarks), so a perf investigation starts from `go tool pprof`
// instead of guesswork; `make profile` is the canonical invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
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
	"repro/internal/topo"
	"repro/internal/traffic"
)

// parseLoads parses the comma-separated -load list of Mb/s values.
func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		// !(v > 0) also rejects NaN, which v <= 0 would let through.
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad -load entry %q (want positive finite Mb/s values)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	seed := flag.Uint64("seed", 1, "master seed (same seed → identical numbers)")
	scale := flag.String("scale", "mid", "quick | mid | paper")
	only := flag.String("only", "", "comma-separated subset: census,calibration,fig12,fig13,fig14,fig15,fig16,fig17,fig19,fig20,mesh,loadsweep,cssweep,staleness")
	armList := flag.String("arms", "", "override figure arm sets with registry names (e.g. csma,cmap,rtscts,cs@-82); \"list\" prints all arms")
	trafficKind := flag.String("traffic", "", "arrival model for every figure: saturated | cbr | poisson | onoff (default saturated)")
	loadList := flag.String("load", "0.5,1,2,4,8", "per-flow offered loads in Mb/s: the sweep uses the list, other figures the first value")
	parallel := flag.Int("parallel", 0, "worker goroutines per experiment (0 = all CPUs, 1 = serial)")
	trials := flag.Int("trials", 0, "override per-experiment trial counts (Pairs/Triples/APRuns/Meshes); 0 keeps the scale's defaults")
	progress := flag.Bool("progress", false, "report per-experiment trial progress on stderr")
	analyticScreen := flag.Bool("analytic", false, "screen the standard (scenario × load) grid through the analytic oracle and exit")
	analyticVerify := flag.Bool("analytic-verify", false, "with -analytic: also simulate the full grid and report agreement and speedup")
	benchJSON := flag.Bool("benchjson", false, "run the scaling benchmarks, write BENCH_<git-short-sha>.json, and exit")
	shards := flag.Int("shards", 0, "run every figure's simulations on the sharded engine with N shards (<=1 = serial)")
	mobilityFlag := flag.String("mobility", "", "move every figure's nodes: <model>@<speed m/s>[@roamM] with model waypoint|walk|vehicular (serial engine only)")
	resumeDir := flag.String("resume", "", "campaign directory: record section and load-sweep-point completion there and resume a killed run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Report-and-continue on failure: os.Exit here would skip the
		// CPU-profile defers and truncate cpu.pprof too.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *benchJSON {
		if err := writeBenchJSON(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *armList == "list" {
		for _, name := range mac.Names() {
			fmt.Println(name)
		}
		return
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
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	opt.Workers = *parallel
	opt.Shards = *shards
	if *mobilityFlag != "" {
		mob, err := mobility.ParseSpec(*mobilityFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if mob.Active() && *shards > 1 {
			fmt.Fprintln(os.Stderr, "-mobility needs the serial engine; drop -shards")
			os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *armList != "" {
		// Validated here so a typo is a CLI error listing every registered
		// name rather than a panic mid-figure.
		arms, err := experiments.ParseArms(*armList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opt.Arms = arms
	}

	loads, err := parseLoads(*loadList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *trafficKind != "" {
		kind, err := traffic.ParseKind(*trafficKind)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if kind != traffic.Saturated {
			// 1400-byte payloads: both MAC defaults. WithOfferedMbps makes
			// -load mean long-run offered load for duty-cycled kinds too.
			opt.Traffic = traffic.Spec{Kind: kind}.WithOfferedMbps(loads[0], 1400)
			fmt.Printf("traffic: %v arrivals at %.2f Mb/s offered per flow\n",
				kind, opt.Traffic.OfferedMbps(1400))
		}
	}

	if *analyticScreen {
		screenLoads := loads
		loadSet := false
		flag.Visit(func(f *flag.Flag) { loadSet = loadSet || f.Name == "load" })
		if !loadSet {
			// The screen is near-free, so default to a denser sweep than
			// the simulated figures use: 16 loads × the 7 standard
			// scenarios ≈ a 112-point grid.
			screenLoads = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 10, 12, 16}
		}
		if err := runAnalyticScreen(opt, screenLoads, *analyticVerify); err != nil {
			fmt.Fprintf(os.Stderr, "analytic: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *resumeDir != "" {
		c, err := checkpoint.OpenCampaign(*resumeDir, checkpoint.ConfigHash(campaignCfg(opt, loads)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		camp = c
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	fmt.Printf("cmapbench — CMAP (NSDI 2008) evaluation reproduction\n")
	fmt.Printf("seed=%d scale=%s duration=%v pairs=%d workers=%d\n\n",
		*seed, *scale, time.Duration(opt.Duration), opt.Pairs,
		runner.Config{Workers: opt.Workers}.EffectiveWorkers())
	if camp != nil {
		if n := len(camp.Keys()); n > 0 {
			fmt.Fprintf(os.Stderr, "campaign %s: %d recorded points, finished work replays from the manifest\n", camp.Dir(), n)
		}
	}

	tb := topo.NewTestbed(opt.Nodes, opt.Seed)

	if sel("census") {
		c := tb.Census()
		fmt.Printf("== §5.1 testbed census ==\n")
		fmt.Printf("connected ordered pairs: %d (paper: 2162)\n", c.ConnectedPairs)
		fmt.Printf("PRR<0.1: %.0f%% (paper 68%%)   0.1≤PRR<1: %.0f%% (paper 12%%)   PRR=1: %.0f%% (paper 20%%)\n",
			100*c.FracLow, 100*c.FracMid, 100*c.FracFull)
		fmt.Printf("degree over usable links: mean %.1f median %.1f (paper 15.2 / 17)\n\n", c.MeanDegree, c.MedianDegree)
	}

	if sel("calibration") {
		step("§4.2 single-link calibration", func() {
			cal := experiments.RunCalibration(tb, opt)
			fmt.Printf("CMAP %.2f Mb/s vs 802.11 %.2f Mb/s (paper: 5.04 vs 5.07)\n",
				cal.CMAPMbps, cal.Dot11Mbps)
		})
	}

	var fig13, fig15 *experiments.PairExperiment

	if sel("fig12") {
		step("Figure 12 — exposed terminals", func() {
			ex := experiments.ExposedTerminals(tb, opt)
			fmt.Print(ex.Format())
			if ex.Ran(experiments.CMAP, experiments.CMAPWin1, experiments.CSMAOn) {
				fmt.Printf("median gain CMAP/CS = %.2fx (paper ≈2x); CMAP win=1 / CS = %.2fx (paper ≈1.5x)\n",
					ex.Gain(experiments.CMAP, experiments.CSMAOn),
					ex.Gain(experiments.CMAPWin1, experiments.CSMAOn))
			}
		})
	}

	if sel("fig13") || sel("fig16") {
		step("Figure 13 — senders in range", func() {
			fig13 = experiments.InRangeSenders(tb, opt)
			fmt.Print(fig13.Format())
		})
	}

	if sel("fig14") {
		step("Figure 14 / §5.4 — hidden interferers", func() {
			res := experiments.HiddenInterferers(tb, opt)
			fmt.Printf("%d (S,R,I) triples; bottom-left-quadrant fraction = %.3f (paper 0.08)\n",
				len(res.Points), res.HiddenFrac)
			fmt.Printf("expected CMAP normalised throughput = %.3f (paper 0.896)\n", res.ExpectedCMAP)
		})
	}

	if sel("fig15") || sel("fig16") {
		step("Figure 15 — hidden terminals", func() {
			fig15 = experiments.HiddenTerminals(tb, opt)
			fmt.Print(fig15.Format())
		})
	}

	if sel("fig16") && fig13 != nil && fig15 != nil {
		if fig13.Ran(experiments.CMAP) && fig15.Ran(experiments.CMAP) {
			step("Figure 16 — header/trailer salvage", func() {
				fmt.Print(experiments.HeaderTrailer(fig13, fig15).Format())
			})
		} else {
			fmt.Println("(fig16 skipped: needs the cmap arm in figures 13 and 15; add cmap to -arms)")
		}
	}

	if sel("fig17") {
		step("Figures 17+18 — access-point topology", func() {
			res := experiments.AccessPoint(tb, opt)
			fmt.Print(res.Format())
			for _, n := range res.Ns {
				cs, cm := res.Mean[experiments.CSMAOn][n], res.Mean[experiments.CMAP][n]
				if cs > 0 && cm > 0 {
					fmt.Printf("N=%d aggregate gain CMAP/CS = %.2fx (paper 1.21–1.47x)\n", n, cm/cs)
				}
			}
			if csd, cmd := res.PerSender[experiments.CSMAOn], res.PerSender[experiments.CMAP]; csd != nil && cmd != nil && csd.Median() > 0 {
				fmt.Printf("per-sender median gain = %.2fx (paper 1.8x)\n", cmd.Median()/csd.Median())
			}
		})
	}

	if sel("fig19") {
		step("Figure 19 — header/trailer vs concurrent senders", func() {
			fmt.Printf("%3s %8s %8s %8s %8s %8s %8s\n", "k", "mean", "p10", "p25", "median", "p75", "p90")
			for _, p := range experiments.HeaderTrailerVsSenders(tb, opt) {
				fmt.Printf("%3d %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
					p.Senders, p.Mean, p.P10, p.P25, p.Median, p.P75, p.P90)
			}
			fmt.Println("(paper: median ≈flat, 10th percentile drops sharply)")
		})
	}

	if sel("fig20") {
		step("Figure 20 — variable bit-rates", func() {
			for _, rs := range experiments.VariableBitRates(tb, opt) {
				if !rs.Ex.Ran(experiments.CSMAOn, experiments.CMAP) {
					fmt.Print(rs.Ex.Format())
					continue
				}
				fmt.Printf("@%g Mb/s: CS median %.2f, CMAP median %.2f → %.2fx\n",
					phy.RateByID(rs.Rate).Mbps,
					rs.Ex.Median(experiments.CSMAOn), rs.Ex.Median(experiments.CMAP),
					rs.Ex.Gain(experiments.CMAP, experiments.CSMAOn))
			}
			fmt.Println("(paper: CMAP keeps winning at 12 and 18 Mb/s)")
		})
	}

	if sel("mesh") {
		step("§5.7 — content-dissemination mesh", func() {
			if opt.Traffic.Kind != traffic.Saturated {
				// The mesh runs the paper's phase-controlled batch
				// dissemination, not per-flow arrival processes; say so
				// rather than mislabel saturated numbers as unsaturated.
				fmt.Println("(note: -traffic does not apply to the §5.7 batch workload; mesh runs saturated batches)")
			}
			meshOpt := opt
			meshOpt.Traffic = traffic.Saturate()
			res := experiments.Mesh(tb, meshOpt)
			fmt.Printf("CMAP %.2f Mb/s vs CSMA %.2f Mb/s → gain %.2fx (paper 1.52x)\n",
				res.CMAP.Mean(), res.CSMA.Mean(), res.Gain())
		})
	}

	if sel("cssweep") {
		step("CS-threshold sweep — goodput vs carrier-sense threshold (beyond the paper)", func() {
			res := experiments.CSThresholdSweep(tb, opt, nil)
			fmt.Print(res.Format())
		})
	}

	if sel("staleness") {
		step("Staleness sweep — goodput vs node speed (beyond the paper)", func() {
			res := experiments.StalenessSweep(tb, opt, nil)
			fmt.Print(res.Format())
		})
	}

	if sel("loadsweep") {
		step("Load sweep — goodput/latency vs offered load (beyond the paper)", func() {
			// Under -resume the sweep additionally records every
			// (topology × arm × load × pair) trial in the campaign
			// manifest as it completes, so a kill mid-sweep loses at most
			// one trial rather than the whole figure.
			for _, class := range []string{"exposed", "hidden"} {
				sweep, err := experiments.OfferedLoadCampaign(tb, class, loads, opt, camp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadsweep: %v\n", err)
					os.Exit(1)
				}
				fmt.Print(sweep.Format())
			}
			fmt.Println("(expected: goodput tracks load below saturation; past the knee CMAP" +
				" out-delivers carrier sense on exposed pairs and matches it on hidden ones)")
		})
	}
}

// camp is the open campaign of a -resume run (nil otherwise). Sections
// record their rendered output under "section/<title>" when they
// finish; a resumed run replays recorded sections from the manifest and
// re-runs only the rest.
var camp *checkpoint.Campaign

// campaignConfig is the subset of the configuration that determines
// results — what the campaign's config hash covers. Workers and
// Progress are deliberately absent (results are bit-identical at every
// worker count), and the -only selection is absent too: completion is
// recorded per section, so a resumed run may narrow or widen the
// selection.
type campaignConfig struct {
	Seed                           uint64
	Nodes                          int
	Duration, Warmup               sim.Time
	Pairs, Triples, APRuns, Meshes int
	Rate                           phy.RateID
	Traffic                        traffic.Spec
	Arms                           []experiments.Protocol
	Shards                         int
	Mobility                       mobility.Spec
	Loads                          []float64
}

func campaignCfg(opt experiments.Options, loads []float64) campaignConfig {
	return campaignConfig{
		Seed:     opt.Seed,
		Nodes:    opt.Nodes,
		Duration: opt.Duration,
		Warmup:   opt.Warmup,
		Pairs:    opt.Pairs,
		Triples:  opt.Triples,
		APRuns:   opt.APRuns,
		Meshes:   opt.Meshes,
		Rate:     opt.Rate,
		Traffic:  opt.Traffic,
		Arms:     opt.Arms,
		Shards:   opt.Shards,
		Mobility: opt.Mobility,
		Loads:    loads,
	}
}

// captureStdout runs fn with os.Stdout teed into a buffer and returns
// what it printed (also forwarding it to the real stdout), so a
// finished section's rendering can be recorded verbatim in the
// campaign manifest.
func captureStdout(fn func()) string {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		fn() // uncachable, but the run itself must not die for it
		return ""
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	func() {
		defer func() {
			os.Stdout = old
			w.Close()
		}()
		fn()
	}()
	out := <-done
	r.Close()
	fmt.Print(out)
	return out
}

// runAnalyticScreen is the -analytic mode: evaluate the standard
// (scenario × load) grid through the conflict-graph oracle, print the
// screen, and — with -analytic-verify — simulate the identical grid to
// measure the oracle's agreement and wall-clock advantage.
func runAnalyticScreen(opt experiments.Options, loads []float64, verify bool) error {
	scens := experiments.StandardScreenScenarios(opt.Seed)
	fmt.Printf("== analytic screen — %d scenarios × %d loads ==\n", len(scens), len(loads))
	screen, err := experiments.AnalyticScreen(scens, loads, opt)
	if err != nil {
		return err
	}
	fmt.Print(screen.Format())
	if !verify {
		return nil
	}

	fmt.Printf("\nsimulating the same %d-point grid (duration %v per point per arm)...\n",
		len(screen.Points), time.Duration(opt.Duration))
	simulated, simElapsed, err := experiments.SimulateScreenGrid(scens, loads, opt)
	if err != nil {
		return err
	}
	type cell struct {
		pred func(p experiments.ScreenPoint) float64
		arm  experiments.Protocol
	}
	cells := []cell{
		{func(p experiments.ScreenPoint) float64 { return p.PredCSMA }, experiments.CSMAOn},
		{func(p experiments.ScreenPoint) float64 { return p.PredCMAP }, experiments.CMAP},
	}
	var flaggedErr, clearErr, worst float64
	var flaggedN, clearN int
	var worstAt string
	for _, p := range screen.Points {
		for _, c := range cells {
			sim := simulated[p.Scenario][p.LoadMbps][c.arm]
			if sim <= 0 {
				continue
			}
			rel := math.Abs(c.pred(p)-sim) / sim
			if p.Simulate {
				flaggedErr += rel
				flaggedN++
			} else {
				clearErr += rel
				clearN++
			}
			if rel > worst {
				worst = rel
				worstAt = fmt.Sprintf("%s load=%.2g %v", p.Scenario, p.LoadMbps, c.arm)
			}
		}
	}
	if clearN > 0 {
		fmt.Printf("screen-decided points: mean |rel err| = %.1f%% over %d arm-points\n",
			100*clearErr/float64(clearN), clearN)
	}
	if flaggedN > 0 {
		fmt.Printf("flagged points:        mean |rel err| = %.1f%% over %d arm-points (that is why they are flagged)\n",
			100*flaggedErr/float64(flaggedN), flaggedN)
	}
	fmt.Printf("worst point: %s (%.1f%%)\n", worstAt, 100*worst)
	speedup := float64(simElapsed) / float64(screen.Elapsed)
	fmt.Printf("wall clock: screen %v vs simulation %v → %.0f× faster\n",
		screen.Elapsed.Round(time.Millisecond), simElapsed.Round(time.Millisecond), speedup)
	return nil
}

// step runs one benchmark section. Under -resume, a section that
// already finished in a prior run replays its recorded text from the
// campaign manifest instead of re-simulating, and a section that
// completes now is recorded for the next restart. The loadsweep section
// is additionally resumable at trial granularity inside the section.
func step(title string, fn func()) {
	fmt.Printf("== %s ==\n", title)
	t0 := time.Now()
	if camp != nil {
		key := "section/" + title
		if raw, ok := camp.Done(key); ok {
			var text string
			if err := json.Unmarshal(raw, &text); err == nil {
				fmt.Print(text)
				fmt.Printf("[cached]\n\n")
				return
			}
		}
		text := captureStdout(fn)
		if err := camp.Complete(key, text); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%.1fs]\n\n", time.Since(t0).Seconds())
		return
	}
	fn()
	fmt.Printf("[%.1fs]\n\n", time.Since(t0).Seconds())
}

// benchRecord is one benchmark's result in the JSON trajectory file.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// benchFile is the BENCH_<sha>.json schema.
type benchFile struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []benchRecord `json:"benchmarks"`
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

// writeBenchJSON runs the scaling suite through testing.Benchmark and
// writes the machine-readable trajectory file.
func writeBenchJSON() error {
	out := benchFile{
		Commit:    gitShortSHA(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	for _, sb := range experiments.ScaleBenchmarks() {
		fmt.Fprintf(os.Stderr, "bench %s...\n", sb.Name)
		r := testing.Benchmark(sb.Run)
		out.Benchmarks = append(out.Benchmarks, benchRecord{
			Name:        sb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", out.Commit)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(out.Benchmarks))
	return nil
}
