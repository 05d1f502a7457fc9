// Command cmapsim runs a single two-flow scenario on the generated
// testbed and prints per-flow goodput and protocol counters — a
// microscope for one topology rather than a whole figure.
//
// Usage:
//
//	cmapsim [-seed N] [-topology exposed|inrange|hidden] [-arm cmap|cmap1|csma|rtscts|cs@-82|cmap:win=2|...]
//	        [-duration 30s] [-index 0] [-trace N] [-trials 1] [-parallel 0]
//	        [-traffic cbr|poisson|onoff] [-load 2.0] [-churn 500ms] [-predict] [-shards N]
//	        [-mobility waypoint@3|walk@1.5|vehicular@20]
//	        [-checkpoint FILE [-checkpoint-every 5s]] [-resume FILE]
//	cmapsim -scenario gridcity|clusters|disk|highway [-nodes 200] ...
//
// -arm picks the stations' MAC from the internal/mac registry (default
// cmap): a fixed name, a cs@<dBm> member such as cs@-82 (CSMA with a
// −82 dBm carrier-sense threshold), or a cmap/csma spec such as
// cmap:win=2:vpkt=16 or csma:nocs:rts, which runs under its canonical
// name (cmap:win=1 is cmap1). `-arm list` prints the fixed names and
// the three family syntaxes. Whatever the arm, the run is wired by
// experiments.NewFlowSim — the construction every figure uses — and the
// per-flow report prints the same mac.Counters line. When -arm is not
// given and the -scenario suggests arms, the first suggestion runs.
//
// -predict prints the analytic oracle's per-flow saturated-goodput
// prediction (internal/analytic: conflict-graph extraction plus the
// mean-field fixed point) next to the simulated numbers, for the arms
// the oracle models: every cmap spec, window included, and csma with
// carrier sense and ACKs at any cs@<dBm> threshold.
//
// -trace N prints the last N link-layer events at the first flow's two
// endpoints, for any arm (single trial on the serial engine).
//
// With -trials above one, the same topology is replayed under
// independently seeded channel/protocol randomness and the per-trial
// aggregates are summarised; trials fan out across -parallel worker
// goroutines (default all CPUs) with bit-identical results at any count.
//
// -traffic replaces the default saturated (always-backlogged) senders
// with an arrival process at -load Mb/s of payload per flow; the
// per-flow report then includes tail drops and per-packet delivery
// latency percentiles measured past the warm-up. -churn makes flows
// alternate between live sessions and silent gaps of the given mean
// duration. Left empty, -traffic falls back to the scenario's suggested
// workload (saturated for all built-in layouts).
//
// -mobility moves the nodes while the flows run: "<model>@<speed m/s>"
// with an optional roam radius third field ("waypoint@3@15"), models
// waypoint | walk | vehicular (serial engine only — it is incompatible
// with -shards). The medium rebuilds a node's delivery list when it is
// next read after nodes move. Left empty, the scenario's suggested
// motion applies (static for every built-in layout except highway,
// which streams vehicles at 20 m/s).
//
// -shards partitions the single simulation across N shard goroutines
// (the internal/shard engine). Each flow's endpoints are co-sharded;
// interference between the two flows crosses the shard border with the
// engine's lookahead-window latency. -shards 1 is serial (bit-identical
// numbers). Larger counts are deterministic, but note the microscope is
// the engine's worst case: a pair chosen for strong cross-flow
// carrier-sense coupling puts the whole interaction on the border, so
// the deviation is far above what network-scale aggregates see — useful
// for inspecting exactly what the window perturbs, not for quoting
// goodput.
//
// -checkpoint writes the complete simulation state to a file every
// -checkpoint-every of virtual time (atomically, so a kill -9 leaves at
// worst the previous checkpoint), and -resume rebuilds the skeleton
// from the identical flags and continues from the file — bit-identical
// to a run that was never interrupted. Progress notes go to stderr so
// stdout stays comparable between interrupted and uninterrupted runs.
//
// -scenario swaps the paper's office floor for one of the large-scale
// generated layouts (sized by -nodes) and picks the experiment pair with
// the same link-selection methodology on top of it; the underlying
// medium is the sparse, grid-constructed one either way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// predictPair prints the analytic oracle's per-flow saturated prediction
// for the selected pair, or explains why the arm has no analytic model.
// The extraction medium is built read-only from the same testbed the
// simulation uses, so both read identical gains.
func predictPair(w io.Writer, tb *topo.Testbed, flows []topo.Link, arm string, seed uint64) {
	r, err := experiments.PredictFlows(tb, flows, experiments.Protocol(arm),
		experiments.Options{Seed: seed, Rate: phy.Rate6Mbps})
	if err != nil {
		fmt.Fprintf(w, "predict: %v\n", err)
		return
	}
	if !r.Converged {
		fmt.Fprintf(w, "predict: %v fixed point did not converge (residual %.2e after %d iterations)\n",
			r.Arm, r.Residual, r.Iterations)
		return
	}
	fmt.Fprintf(w, "predict (%v, saturated): flow1 %.2f  flow2 %.2f  aggregate %.2f Mb/s  (occupancy %.2f/%.2f, %d iterations)\n",
		r.Arm, r.FlowMbps[0], r.FlowMbps[1], r.AggregateMbps(), r.Occupancy[0], r.Occupancy[1], r.Iterations)
}

// trial is one replication's per-flow outcome, or why it could not run.
type trial struct {
	flows []experiments.FlowResult
	err   error
}

// checkpointing is the single-trial crash-tolerance request: write the
// full state to path every interval of virtual time, and/or start from
// the state in resume. The zero value runs straight through.
type checkpointing struct {
	path, resume string
	every        sim.Time
}

// runTrial replays the scenario once to cfg.Duration, through the one
// construction every figure uses. tracer, when set, records flow 0's
// endpoints; progress notes of ck go to notes.
func runTrial(tb *topo.Testbed, cfg experiments.FlowSimConfig, ck checkpointing, tracer *trace.Tracer, notes io.Writer) (*experiments.FlowSim, error) {
	fs, err := experiments.NewFlowSim(tb, cfg)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := fs.Trace(tracer); err != nil {
			return nil, err
		}
	}
	if ck.resume != "" {
		if err := fs.ResumeFile(ck.resume); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		fmt.Fprintf(notes, "resumed %s at t=%v\n", ck.resume, time.Duration(fs.Now()))
	}
	for ck.path != "" {
		// Multi-shard engines checkpoint only at window edges; align
		// each cut up to the next legal instant.
		next := fs.AlignCheckpoint(fs.Now() + ck.every)
		if next >= cfg.Duration {
			break
		}
		fs.Run(next)
		if err := fs.SaveFile(ck.path); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(notes, "checkpoint: %s at t=%v\n", ck.path, time.Duration(next))
	}
	fs.Run(cfg.Duration)
	return fs, nil
}

// report writes a finished run's per-flow detail: goodput with the
// sender's mac.Counters — the same line for every arm, zero where the
// arm has no such concept — and, under an arrival process, the source's
// ledger and latency percentiles.
func report(w io.Writer, fs *experiments.FlowSim, rs []experiments.FlowResult) {
	for i, r := range rs {
		c := fs.Sender(i).Counters()
		fmt.Fprintf(w, "flow %d→%d: %.2f Mb/s  sent=%d dropped=%d ackTO=%d vpkts=%d defers=%d backoffs=%d retxTO=%d deferTab=%d\n",
			r.Link.Src, r.Link.Dst, r.Mbps, c.Sent, c.Dropped, c.AckTimeouts, c.VpktsSent, c.Defers, c.Backoffs, c.RetxTimeouts, c.DeferEntries)
	}
	for _, r := range rs {
		if r.Lat == nil {
			continue
		}
		fmt.Fprintf(w, "flow %d→%d arrivals: offered=%d accepted=%d dropped=%d  latency p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n",
			r.Link.Src, r.Link.Dst, r.OfferedPkts, r.AcceptedPkts, r.DroppedPkts,
			r.Lat.P50(), r.Lat.P95(), r.Lat.P99(), r.Lat.N())
	}
}

// buildTestbed realises the chosen layout and, for the generated
// scenarios, runs the link-measurement pass over it so the Figure 11
// topology pickers work on top. The pass is O(n²) — cmapsim sizes are
// CLI-scale, not the 1000-node benchmark regime. The later results
// are the scenario's suggested workload, MAC arm set and motion model
// (saturated, driver-default and static unless the layout says
// otherwise), which the -traffic, -arm and -mobility flags override.
func buildTestbed(scenario string, nodes int, seed uint64) (*topo.Testbed, traffic.Spec, []string, mobility.Spec, error) {
	switch scenario {
	case "testbed":
		if nodes <= 0 {
			nodes = 50
		}
		return topo.NewTestbed(nodes, seed), traffic.Saturate(), nil, mobility.Spec{}, nil
	case "highway":
		// Three lanes of through traffic at motorway speed; the strip is
		// long enough that the measured pair sees a steady stream of
		// vehicles passing through its neighbourhood.
		if nodes <= 0 {
			nodes = 120
		}
		sc := topo.Highway(nodes, 3, 600, 8, 20, seed)
		return sc.Testbed(), sc.Traffic, sc.Arms, sc.Mobility, nil
	case "gridcity":
		// Blocks of 300 m keep same-block links inside the strong-signal
		// range of the urban model, so potential transmission links exist.
		const perBlock = 6
		if nodes <= 0 {
			nodes = 216
		}
		side := 1
		for side*side*perBlock < nodes {
			side++
		}
		sc := topo.GridCity(side, side, perBlock, 300, seed)
		return sc.Testbed(), sc.Traffic, sc.Arms, sc.Mobility, nil
	case "clusters":
		// Tight hotspot cells a block apart: in-cell links are strong,
		// neighbouring cells interact only through carrier sense.
		const clients = 10
		if nodes <= 0 {
			nodes = 132
		}
		cells := (nodes + clients) / (clients + 1)
		if cells < 1 {
			cells = 1
		}
		sc := topo.ClusteredAPs(cells, clients, 400, 12, seed)
		return sc.Testbed(), sc.Traffic, sc.Arms, sc.Mobility, nil
	case "disk":
		if nodes <= 0 {
			nodes = 200
		}
		sc := topo.UniformDisk(nodes, 200, seed)
		return sc.Testbed(), sc.Traffic, sc.Arms, sc.Mobility, nil
	}
	return nil, traffic.Spec{}, nil, mobility.Spec{}, fmt.Errorf("unknown scenario %q", scenario)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when the scenario cannot be
// realised or a file operation fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cmapsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	seed := fl.Uint64("seed", 1, "master seed")
	topology := fl.String("topology", "exposed", "exposed | inrange | hidden")
	armFlag := fl.String("arm", "cmap", "registry MAC arm name or spec (e.g. cmap, csma, rtscts, cs@-82, cmap:win=2); \"list\" prints all arms")
	duration := fl.Duration("duration", 30*time.Second, "virtual run time")
	index := fl.Int("index", 0, "which sampled topology to run")
	traceN := fl.Int("trace", 0, "print the last N link-layer events of the first flow's endpoints (single trial, serial engine)")
	trials := fl.Int("trials", 1, "independent replications of the scenario")
	parallel := fl.Int("parallel", 0, "worker goroutines for -trials (0 = all CPUs, 1 = serial)")
	scenario := fl.String("scenario", "testbed", "testbed | gridcity | clusters | disk | highway")
	nodes := fl.Int("nodes", 0, "scenario size (0 = scenario default; testbed default 50)")
	trafficKind := fl.String("traffic", "", "arrival model: saturated | cbr | poisson | onoff (empty = scenario default)")
	load := fl.Float64("load", 2.0, "per-flow offered load in Mb/s of payload (non-saturated -traffic only)")
	churn := fl.Duration("churn", 0, "mean session up/down duration for flow churn (0 = no churn)")
	mobilityFlag := fl.String("mobility", "", "node motion: <model>@<speed m/s>[@roamM] with model waypoint|walk|vehicular, or none (empty = scenario default)")
	predict := fl.Bool("predict", false, "also print the analytic oracle's saturated per-flow prediction")
	shards := fl.Int("shards", 0, "partition the simulation across N shard goroutines (<=1 = serial)")
	ckptPath := fl.String("checkpoint", "", "write the full simulation state to this file every -checkpoint-every of virtual time (single trial)")
	ckptEvery := fl.Duration("checkpoint-every", 5*time.Second, "virtual-time interval between auto-checkpoints")
	resumePath := fl.String("resume", "", "resume a single-trial run from a checkpoint file written under identical flags")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fl.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}

	if *armFlag == "list" {
		for _, name := range mac.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	arm, err := mac.Lookup(*armFlag)
	if err != nil {
		return usage("%v", err)
	}
	*armFlag = arm.Name()
	switch {
	case *index < 0:
		return usage("-index %d: want a non-negative topology index", *index)
	case *duration <= 0:
		return usage("-duration %v: want a positive virtual run time", *duration)
	case *traceN < 0:
		return usage("-trace %d: want a non-negative event count", *traceN)
	case *trials < 0:
		return usage("-trials %d: want a non-negative count", *trials)
	case *parallel < 0:
		return usage("-parallel %d: want a non-negative worker count (0 = all CPUs)", *parallel)
	case *nodes < 0:
		return usage("-nodes %d: want a non-negative node count (0 = the scenario's default)", *nodes)
	case *traceN > 0 && *trials > 1:
		return usage("-trace records one run; it cannot be combined with -trials %d", *trials)
	case *traceN > 0 && *shards > 1:
		return usage("-trace needs the serial engine; it cannot be combined with -shards %d", *shards)
	case (*ckptPath != "" || *resumePath != "") && *trials > 1:
		return usage("-checkpoint/-resume apply to the single-trial microscope, not -trials replications")
	case *ckptPath != "" && *ckptEvery <= 0:
		return usage("-checkpoint-every %v: want a positive virtual-time interval", *ckptEvery)
	}

	tb, spec, suggested, mob, err := buildTestbed(*scenario, *nodes, *seed)
	if err != nil {
		return usage("%v", err)
	}
	if *shards > tb.N {
		return usage("-shards %d: want at most one shard per node (%d nodes)", *shards, tb.N)
	}
	if *mobilityFlag != "" {
		mob, err = mobility.ParseSpec(*mobilityFlag)
		if err != nil {
			return usage("%v", err)
		}
	}
	if mob.Active() && *shards > 1 {
		return usage("-mobility needs the serial engine; drop -shards")
	}
	// With -arm not chosen explicitly, a scenario that suggests arms picks
	// the station type (mirroring how an unset -traffic falls back to the
	// scenario's suggested workload).
	if !set["arm"] && len(suggested) > 0 {
		*armFlag = suggested[0]
		fmt.Fprintf(stdout, "arm: %s (scenario suggestion; override with -arm)\n", *armFlag)
	}
	if *trafficKind != "" {
		kind, err := traffic.ParseKind(*trafficKind)
		if err != nil {
			return usage("%v", err)
		}
		spec.Kind = kind
	}
	if spec.Kind != traffic.Saturated {
		// !(load > 0) also rejects NaN. Validate here so a bad flag is a
		// CLI error, not a panic from inside traffic.NewSource.
		if !(*load > 0) || *load > 1e6 {
			return usage("-load %v: want a positive Mb/s value", *load)
		}
		if *churn > 0 {
			spec.UpMean = sim.Duration(*churn)
			spec.DownMean = sim.Duration(*churn)
		}
		// The -load flag (or its default) sets the long-run offered rate
		// unless the scenario suggested a workload with its own rate and
		// the user did not override it.
		if set["load"] || spec.PacketsPerSec <= 0 {
			spec = spec.WithOfferedMbps(*load, mac.DefaultPayload)
		}
		// A spec that passes without its session means fails on -churn.
		bare := spec
		bare.UpMean, bare.DownMean = 0, 0
		if err := bare.Validate(); err != nil {
			return usage("-load %v: %v", *load, err)
		} else if err := spec.Validate(); err != nil {
			return usage("-churn %v: %v", *churn, err)
		}
		fmt.Fprintf(stdout, "traffic: %v at %.2f Mb/s offered per flow (%.0f pkt/s peak)\n",
			spec.Kind, spec.OfferedMbps(mac.DefaultPayload), spec.PacketsPerSec)
	}
	rng := sim.NewRNG(*seed * 31)
	var pairs []topo.LinkPair
	switch *topology {
	case "exposed":
		pairs = tb.ExposedPairs(rng, *index+1)
	case "inrange":
		pairs = tb.InRangePairs(rng, *index+1)
	case "hidden":
		pairs = tb.HiddenPairs(rng, *index+1)
	default:
		return usage("unknown topology %q", *topology)
	}
	if *index >= len(pairs) {
		fmt.Fprintf(stderr, "only %d %s topologies available\n", len(pairs), *topology)
		return 1
	}
	pair := pairs[*index]
	flows := []topo.Link{pair.A, pair.B}
	fmt.Fprintf(stdout, "topology %s[%d]: S1=%d→R1=%d  S2=%d→R2=%d\n",
		*topology, *index, pair.A.Src, pair.A.Dst, pair.B.Src, pair.B.Dst)
	fmt.Fprintf(stdout, "links: S1→R1 %.0f dBm (PRR %.2f)  S2→R2 %.0f dBm (PRR %.2f)  S2@S1 %.0f dBm\n",
		tb.RSS[pair.A.Src][pair.A.Dst], tb.PRR[pair.A.Src][pair.A.Dst],
		tb.RSS[pair.B.Src][pair.B.Dst], tb.PRR[pair.B.Src][pair.B.Dst],
		tb.RSS[pair.B.Src][pair.A.Src])
	if *predict {
		predictPair(stdout, tb, flows, *armFlag, *seed)
	}
	if mob.Active() {
		fmt.Fprintf(stdout, "mobility: %s\n", mob)
	}

	d := sim.Duration(*duration)
	cfg := experiments.FlowSimConfig{
		Arm:      experiments.Protocol(*armFlag),
		Flows:    flows,
		Duration: d,
		Warmup:   d * 2 / 5,
		Rate:     phy.Rate6Mbps,
		Traffic:  spec,
		Mobility: mob,
		Shards:   *shards,
	}
	if *trials <= 1 {
		// The single-run microscope: channel randomness comes from the
		// same master-seed stream as the topology sampling.
		cfg.Seed = rng.Uint64()
		var tracer *trace.Tracer
		if *traceN > 0 {
			tracer = trace.New(*traceN)
		}
		ck := checkpointing{path: *ckptPath, resume: *resumePath, every: sim.Duration(*ckptEvery)}
		fs, err := runTrial(tb, cfg, ck, tracer, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rs := fs.Results()
		report(stdout, fs, rs)
		if tracer != nil {
			fmt.Fprintf(stdout, "\nlast %d link-layer events of flow 0's endpoints:\n%s", tracer.Len(), tracer.Dump())
		}
		fmt.Fprintf(stdout, "aggregate: %.2f Mb/s\n", rs[0].Mbps+rs[1].Mbps)
		return 0
	}

	// Replications: each trial's seed is a pure function of the master
	// seed and the trial index, so any -parallel value reproduces the
	// same numbers in the same order.
	results := runner.Map(runner.Config{Workers: *parallel}, *trials, func(i int) trial {
		c := cfg
		c.Seed = *seed + uint64(i)*0x9e37 + 1
		fs, err := runTrial(tb, c, checkpointing{}, nil, io.Discard)
		if err != nil {
			return trial{err: err}
		}
		return trial{flows: fs.Results()}
	})
	var agg, a, b stats.Dist
	var pooled stats.Latency
	var drops uint64
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintln(stderr, r.err)
			return 1
		}
		f1, f2 := r.flows[0], r.flows[1]
		fmt.Fprintf(stdout, "trial %2d: flow1 %.2f  flow2 %.2f  aggregate %.2f Mb/s\n", i, f1.Mbps, f2.Mbps, f1.Mbps+f2.Mbps)
		a.Add(f1.Mbps)
		b.Add(f2.Mbps)
		agg.Add(f1.Mbps + f2.Mbps)
		pooled.Merge(f1.Lat)
		pooled.Merge(f2.Lat)
		drops += f1.DroppedPkts + f2.DroppedPkts
	}
	fmt.Fprintf(stdout, "aggregate over %d trials: mean %.2f  median %.2f  std %.2f  min %.2f  max %.2f Mb/s\n",
		*trials, agg.Mean(), agg.Median(), agg.Std(), agg.Min(), agg.Max())
	fmt.Fprintf(stdout, "flow1 mean %.2f Mb/s  flow2 mean %.2f Mb/s\n", a.Mean(), b.Mean())
	if spec.Kind != traffic.Saturated {
		fmt.Fprintf(stdout, "latency pooled over trials: p50 %.2f  p95 %.2f  p99 %.2f ms (n=%d); tail drops %d\n",
			pooled.P50(), pooled.P95(), pooled.P99(), pooled.N(), drops)
	}
	return 0
}
