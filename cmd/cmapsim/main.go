// Command cmapsim runs a single two-flow scenario on the generated
// testbed and prints per-flow goodput and protocol counters — a
// microscope for one topology rather than a whole figure.
//
// Usage:
//
//	cmapsim [-seed N] [-topology exposed|inrange|hidden] [-protocol cmap|cmap1|dcf|dcf-nocs|dcf-nocs-noack]
//	        [-arm csma|rtscts|cs@-82|...] [-duration 30s] [-index 0] [-trace N] [-trials 1] [-parallel 0]
//	        [-traffic cbr|poisson|onoff] [-load 2.0] [-churn 500ms] [-predict] [-shards N]
//	        [-mobility waypoint@3|walk@1.5|vehicular@20]
//	cmapsim -scenario gridcity|clusters|disk|highway [-nodes 200] ...
//
// -arm runs any arm of the internal/mac registry by name — including
// family members like cs@-82 (CSMA with a −82 dBm carrier-sense
// threshold) — and overrides -protocol; `-arm list` prints every
// registered name. The legacy -protocol flag keeps its richer per-flow
// counter report for the protocols it names. When neither flag is set
// and the -scenario suggests arms, the first suggestion runs.
//
// -predict prints the analytic oracle's per-flow saturated-goodput
// prediction (internal/analytic: conflict-graph extraction plus the
// mean-field fixed point) next to the simulated numbers, for the
// protocols the oracle models (cmap, cmap1, dcf).
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
// waypoint | walk | vehicular, on the registry -arm path (serial
// engine only — it is incompatible with -shards). The medium patches
// per-node delivery lists incrementally as nodes move. Left empty, the
// scenario's suggested motion applies (static for every built-in
// layout except highway, which streams vehicles at 20 m/s).
//
// -shards partitions the single simulation across N shard goroutines
// (the internal/shard engine) on the registry -arm path. Each flow's
// endpoints are co-sharded; interference between the two flows crosses
// the shard border with the engine's lookahead-window latency. -shards 1
// is serial (bit-identical numbers). Larger counts are deterministic,
// but note the microscope is the engine's worst case: a pair chosen for
// strong cross-flow carrier-sense coupling puts the whole interaction
// on the border, so the deviation is far above what network-scale
// aggregates see — useful for inspecting exactly what the window
// perturbs, not for quoting goodput.
//
// -scenario swaps the paper's office floor for one of the large-scale
// generated layouts (sized by -nodes) and picks the experiment pair with
// the same link-selection methodology on top of it; the underlying
// medium is the sparse, grid-constructed one either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/csma"
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

// predictPair runs the analytic oracle over the selected pair and prints
// its per-flow saturated prediction, or explains why the protocol has no
// analytic model. The extraction medium is built read-only from the same
// testbed the simulation uses, so both read identical gains. Registry
// arm names work too: "csma" maps to the CSMA model and "cs@<dBm>"
// additionally overrides the sensing threshold in the extraction.
func predictPair(tb *topo.Testbed, pair topo.LinkPair, protocol string, seed uint64) {
	var arm analytic.Arm
	var cfg analytic.ExtractConfig
	switch {
	case protocol == "dcf" || protocol == "csma":
		arm = analytic.ArmCSMA
	case protocol == "cmap" || protocol == "cmap1":
		arm = analytic.ArmCMAP
	case strings.HasPrefix(protocol, "cs@"):
		thr, err := strconv.ParseFloat(strings.TrimPrefix(protocol, "cs@"), 64)
		if err != nil {
			fmt.Printf("predict: bad cs@ threshold in %q\n", protocol)
			return
		}
		arm = analytic.ArmCSMA
		cfg.CSThresholdDBm = thr
	default:
		fmt.Printf("predict: no analytic model for protocol %q\n", protocol)
		return
	}
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(seed).Stream(1))
	g, err := analytic.Extract(m, []topo.Link{pair.A, pair.B}, cfg)
	if err != nil {
		fmt.Printf("predict: %v\n", err)
		return
	}
	r := analytic.Solve(g, analytic.Options{Arm: arm})
	if !r.Converged {
		fmt.Printf("predict: %v fixed point did not converge (residual %.2e after %d iterations)\n",
			arm, r.Residual, r.Iterations)
		return
	}
	fmt.Printf("predict (%v, saturated): flow1 %.2f  flow2 %.2f  aggregate %.2f Mb/s  (occupancy %.2f/%.2f, %d iterations)\n",
		arm, r.FlowMbps[0], r.FlowMbps[1], r.AggregateMbps(), r.Occupancy[0], r.Occupancy[1], r.Iterations)
}

// trialResult is one replication's measured goodput (plus arrival-mode
// latency and drop counters when a traffic spec is active).
type trialResult struct {
	flows [2]float64
	agg   float64
	lats  [2]*stats.Latency
	drops uint64
}

// runTrial replays the scenario once from the given seed. detail turns on
// the verbose per-flow counter report and optional tracing (single-trial
// mode only). A non-saturated spec replaces the backlogged senders with
// arrival processes and measures per-packet latency past the warm-up.
func runTrial(tb *topo.Testbed, pair topo.LinkPair, protocol string, spec traffic.Spec, d sim.Time, seed uint64, detail bool, traceN int) trialResult {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := tb.Build(sched, rng.Stream(1))
	warm := d * 2 / 5
	meters := [2]*stats.Meter{
		{Start: warm, End: d},
		{Start: warm, End: d},
	}
	flows := [2]topo.Link{pair.A, pair.B}
	var tracer *trace.Tracer
	if detail && traceN > 0 {
		tracer = trace.New(traceN)
	}
	res := trialResult{}
	var sources [2]*traffic.Source

	// drive points flow i's workload at the sender: saturated directly,
	// arrival processes through a traffic.Source with latency mapping at
	// the receiver.
	drive := func(i int, sat func(), q traffic.Enqueuer, setDeliver func(func(int, uint32, sim.Time)), window int) {
		if spec.Kind == traffic.Saturated {
			sat()
			return
		}
		f := flows[i]
		res.lats[i] = &stats.Latency{W: stats.Window{Start: warm, End: d}}
		src := traffic.NewSource(sched, rng.Stream(uint64(300+i)), spec, q, f.Dst)
		src.EnableLatency(window)
		sources[i] = src
		lat := res.lats[i]
		setDeliver(func(from int, seq uint32, now sim.Time) {
			if from != f.Src {
				return
			}
			if at, ok := src.ArrivalTime(seq); ok {
				lat.Record(now, now-at)
			}
		})
		src.Start()
	}

	switch protocol {
	case "cmap", "cmap1":
		cfg := core.DefaultConfig()
		if protocol == "cmap1" {
			cfg.Nwindow = 1
		}
		var senders [2]*core.Node
		for i, f := range flows {
			senders[i] = core.New(f.Src, cfg, m, rng.Stream(uint64(100+i)))
			rx := core.New(f.Dst, cfg, m, rng.Stream(uint64(200+i)))
			rx.Meter = meters[i]
			if tracer != nil && i == 0 {
				m.Radio(f.Src).SetHandler(tracer.Wrap(f.Src, senders[i], sched))
				m.Radio(f.Dst).SetHandler(tracer.Wrap(f.Dst, rx, sched))
			}
			tx := senders[i]
			drive(i, func() { tx.SetSaturated(f.Dst) }, tx,
				func(fn func(int, uint32, sim.Time)) { rx.OnDeliver = fn },
				cfg.Nwindow*cfg.Nvpkt)
		}
		sched.Run(d)
		if detail {
			for i, f := range flows {
				st := senders[i].Stats()
				fmt.Printf("flow %d→%d: %.2f Mb/s  vpkts=%d defers=%d backoffs=%d acks=%d ackMiss=%d retxTO=%d deferTab=%d\n",
					f.Src, f.Dst, meters[i].Mbps(), st.VpktsSent, st.Defers, st.Backoffs,
					st.AcksReceived, st.AckWaitExpired, st.RetxTimeouts, senders[i].DeferTableSize())
			}
		}
	case "dcf", "dcf-nocs", "dcf-nocs-noack":
		cfg := csma.DefaultConfig()
		cfg.CarrierSense = protocol == "dcf"
		cfg.LinkACKs = protocol != "dcf-nocs-noack"
		var senders [2]*csma.Node
		for i, f := range flows {
			senders[i] = csma.New(f.Src, cfg, m, rng.Stream(uint64(100+i)))
			rx := csma.New(f.Dst, cfg, m, rng.Stream(uint64(200+i)))
			rx.Meter = meters[i]
			tx := senders[i]
			drive(i, func() { tx.SetSaturated(f.Dst) }, tx,
				func(fn func(int, uint32, sim.Time)) { rx.OnDeliver = fn }, 16)
		}
		sched.Run(d)
		if detail {
			for i, f := range flows {
				st := senders[i].Stats()
				fmt.Printf("flow %d→%d: %.2f Mb/s  sent=%d ackTO=%d dropped=%d\n",
					f.Src, f.Dst, meters[i].Mbps(), st.Sent, st.AckTimeout, st.Dropped)
			}
		}
	default:
		panic(fmt.Sprintf("unvalidated protocol %q", protocol))
	}
	res.flows = [2]float64{meters[0].Mbps(), meters[1].Mbps()}
	res.agg = res.flows[0] + res.flows[1]
	for i, src := range sources {
		if src == nil {
			continue
		}
		st := src.Stats()
		res.drops += st.Dropped
		if detail {
			fmt.Printf("flow %d→%d arrivals: offered=%d accepted=%d dropped=%d  latency p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n",
				flows[i].Src, flows[i].Dst, st.Offered, st.Accepted, st.Dropped,
				res.lats[i].P50(), res.lats[i].P95(), res.lats[i].P99(), res.lats[i].N())
		}
	}
	if tracer != nil {
		fmt.Printf("\nlast %d link-layer events of flow 0's endpoints:\n%s", tracer.Len(), tracer.Dump())
	}
	return res
}

// resolveArm validates an -arm flag value against the internal/mac
// registry, so a typo is a CLI error that lists every registered name
// instead of a panic deep in a trial.
func resolveArm(name string) (mac.Arm, error) {
	return mac.Lookup(name)
}

// trialFlowSim builds the registry-arm microscope as a held-open
// experiments.FlowSim — the wiring and RNG stream labels every figure
// uses — so the simulation can be checkpointed and resumed mid-run.
func trialFlowSim(tb *topo.Testbed, pair topo.LinkPair, armName string, spec traffic.Spec, mob mobility.Spec, d sim.Time, seed uint64, shards int) (*experiments.FlowSim, error) {
	return experiments.NewFlowSim(tb, experiments.FlowSimConfig{
		Arm:      experiments.Protocol(armName),
		Flows:    []topo.Link{pair.A, pair.B},
		Duration: d,
		Warmup:   d * 2 / 5,
		Rate:     phy.Rate6Mbps,
		Traffic:  spec,
		Mobility: mob,
		Shards:   shards,
		Seed:     seed,
	})
}

// reportTrialArm extracts the per-flow outcome (and prints the detail
// report) from a finished registry-arm simulation.
func reportTrialArm(fs *experiments.FlowSim, pair topo.LinkPair, detail bool) trialResult {
	flows := [2]topo.Link{pair.A, pair.B}
	res := trialResult{}
	if detail {
		for i, f := range flows {
			fmt.Printf("flow %d→%d: %.2f Mb/s  macDropped=%d\n",
				f.Src, f.Dst, fs.Meter(i).Mbps(), fs.Sender(i).MacDropped())
		}
	}
	res.flows = [2]float64{fs.Meter(0).Mbps(), fs.Meter(1).Mbps()}
	res.agg = res.flows[0] + res.flows[1]
	for i := range flows {
		src := fs.Source(i)
		if src == nil {
			continue
		}
		res.lats[i] = fs.Lat(i)
		st := src.Stats()
		res.drops += st.Dropped
		if detail {
			fmt.Printf("flow %d→%d arrivals: offered=%d accepted=%d dropped=%d  latency p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n",
				flows[i].Src, flows[i].Dst, st.Offered, st.Accepted, st.Dropped,
				res.lats[i].P50(), res.lats[i].P95(), res.lats[i].P99(), res.lats[i].N())
		}
	}
	return res
}

// runTrialArm is runTrial for registry arms: the same scenario replay,
// but the stations are built through the internal/mac registry by name,
// so every registered arm — RTS/CTS, the cs@<dBm> family, and anything
// registered later — gets the microscope without a bespoke case. The
// detail report sticks to the arm-independent surface (goodput and MAC
// drops); the legacy -protocol path keeps its protocol-specific
// counters.
func runTrialArm(tb *topo.Testbed, pair topo.LinkPair, armName string, spec traffic.Spec, mob mobility.Spec, d sim.Time, seed uint64, shards int, detail bool) trialResult {
	fs, err := trialFlowSim(tb, pair, armName, spec, mob, d, seed, shards)
	if err != nil {
		panic(err) // arm names are validated at the CLI boundary
	}
	fs.Run(d)
	return reportTrialArm(fs, pair, detail)
}

// runTrialArmCheckpointed is the crash-tolerant single-trial path:
// -checkpoint writes the complete simulation state to a file every
// -checkpoint-every of virtual time (atomically, so a kill -9 leaves at
// worst the previous checkpoint), and -resume rebuilds the skeleton
// from the identical flags and continues from the file — bit-identical
// to a run that was never interrupted. Progress notes go to stderr so
// stdout stays comparable between interrupted and uninterrupted runs.
func runTrialArmCheckpointed(tb *topo.Testbed, pair topo.LinkPair, armName string, spec traffic.Spec, mob mobility.Spec, d sim.Time, seed uint64, shards int, ckptPath string, every sim.Time, resumePath string) trialResult {
	fs, err := trialFlowSim(tb, pair, armName, spec, mob, d, seed, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if resumePath != "" {
		if err := fs.ResumeFile(resumePath); err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "resumed %s at t=%v\n", resumePath, time.Duration(fs.Now()))
	}
	if ckptPath == "" || every <= 0 {
		fs.Run(d)
	} else {
		for fs.Now() < d {
			// Multi-shard engines checkpoint only at window edges; align
			// each cut up to the next legal instant.
			next := fs.AlignCheckpoint(fs.Now() + every)
			if next >= d {
				fs.Run(d)
				break
			}
			fs.Run(next)
			if err := fs.SaveFile(ckptPath); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "checkpoint: %s at t=%v\n", ckptPath, time.Duration(next))
		}
	}
	return reportTrialArm(fs, pair, true)
}

// buildTestbed realises the chosen layout and, for the generated
// scenarios, runs the link-measurement pass over it so the Figure 11
// topology pickers work on top. The pass is O(n²) — cmapsim sizes are
// CLI-scale, not the 1000-node benchmark regime. The later results
// are the scenario's suggested workload, MAC arm set and motion model
// (saturated, driver-default and static unless the layout says
// otherwise), which the -traffic, -arm/-protocol and -mobility flags
// override.
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

func main() {
	seed := flag.Uint64("seed", 1, "master seed")
	topology := flag.String("topology", "exposed", "exposed | inrange | hidden")
	protocol := flag.String("protocol", "cmap", "cmap | cmap1 | dcf | dcf-nocs | dcf-nocs-noack")
	armFlag := flag.String("arm", "", "registry MAC arm name (e.g. rtscts, cs@-82); overrides -protocol; \"list\" prints all arms")
	duration := flag.Duration("duration", 30*time.Second, "virtual run time")
	index := flag.Int("index", 0, "which sampled topology to run")
	traceN := flag.Int("trace", 0, "print the last N link-layer events of the first flow's endpoints (single trial only)")
	trials := flag.Int("trials", 1, "independent replications of the scenario")
	parallel := flag.Int("parallel", 0, "worker goroutines for -trials (0 = all CPUs, 1 = serial)")
	scenario := flag.String("scenario", "testbed", "testbed | gridcity | clusters | disk | highway")
	nodes := flag.Int("nodes", 0, "scenario size (0 = scenario default; testbed default 50)")
	trafficKind := flag.String("traffic", "", "arrival model: saturated | cbr | poisson | onoff (empty = scenario default)")
	load := flag.Float64("load", 2.0, "per-flow offered load in Mb/s of payload (non-saturated -traffic only)")
	churn := flag.Duration("churn", 0, "mean session up/down duration for flow churn (0 = no churn)")
	mobilityFlag := flag.String("mobility", "", "node motion: <model>@<speed m/s>[@roamM] with model waypoint|walk|vehicular, or none (empty = scenario default)")
	predict := flag.Bool("predict", false, "also print the analytic oracle's saturated per-flow prediction")
	shards := flag.Int("shards", 0, "partition the simulation across N shard goroutines (registry -arm path only; <=1 = serial)")
	ckptPath := flag.String("checkpoint", "", "write the full simulation state to this file every -checkpoint-every of virtual time (registry -arm single-trial path)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Second, "virtual-time interval between auto-checkpoints")
	resumePath := flag.String("resume", "", "resume a single-trial -arm run from a checkpoint file written under identical flags")
	flag.Parse()

	if *armFlag == "list" {
		for _, name := range mac.Names() {
			fmt.Println(name)
		}
		return
	}
	if *armFlag != "" {
		if _, err := resolveArm(*armFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		switch *protocol {
		case "cmap", "cmap1", "dcf", "dcf-nocs", "dcf-nocs-noack":
		default:
			fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protocol)
			os.Exit(2)
		}
	}

	tb, spec, suggested, mob, err := buildTestbed(*scenario, *nodes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *mobilityFlag != "" {
		mob, err = mobility.ParseSpec(*mobilityFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// With neither -arm nor -protocol chosen explicitly, a scenario that
	// suggests arms picks the station type (mirroring how an unset
	// -traffic falls back to the scenario's suggested workload).
	if *armFlag == "" && len(suggested) > 0 {
		protocolSet := false
		flag.Visit(func(f *flag.Flag) { protocolSet = protocolSet || f.Name == "protocol" })
		if !protocolSet {
			*armFlag = suggested[0]
			fmt.Printf("arm: %s (scenario suggestion; override with -arm or -protocol)\n", *armFlag)
		}
	}
	if *trafficKind != "" {
		kind, err := traffic.ParseKind(*trafficKind)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec.Kind = kind
	}
	if spec.Kind != traffic.Saturated {
		// !(load > 0) also rejects NaN. Validate here so a bad flag is a
		// CLI error, not a panic from inside traffic.NewSource.
		if !(*load > 0) || *load > 1e6 {
			fmt.Fprintf(os.Stderr, "-load %v: want a positive Mb/s value\n", *load)
			os.Exit(2)
		}
		if *churn > 0 {
			spec.UpMean = sim.Duration(*churn)
			spec.DownMean = sim.Duration(*churn)
		}
		// The -load flag (or its default) sets the long-run offered rate
		// unless the scenario suggested a workload with its own rate and
		// the user did not override it.
		loadSet := false
		flag.Visit(func(f *flag.Flag) { loadSet = loadSet || f.Name == "load" })
		if loadSet || spec.PacketsPerSec <= 0 {
			spec = spec.WithOfferedMbps(*load, 1400)
		}
		fmt.Printf("traffic: %v at %.2f Mb/s offered per flow (%.0f pkt/s peak)\n",
			spec.Kind, spec.OfferedMbps(1400), spec.PacketsPerSec)
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
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topology)
		os.Exit(2)
	}
	if *index >= len(pairs) {
		fmt.Fprintf(os.Stderr, "only %d %s topologies available\n", len(pairs), *topology)
		os.Exit(1)
	}
	pair := pairs[*index]
	fmt.Printf("topology %s[%d]: S1=%d→R1=%d  S2=%d→R2=%d\n",
		*topology, *index, pair.A.Src, pair.A.Dst, pair.B.Src, pair.B.Dst)
	fmt.Printf("links: S1→R1 %.0f dBm (PRR %.2f)  S2→R2 %.0f dBm (PRR %.2f)  S2@S1 %.0f dBm\n",
		tb.RSS[pair.A.Src][pair.A.Dst], tb.PRR[pair.A.Src][pair.A.Dst],
		tb.RSS[pair.B.Src][pair.B.Dst], tb.PRR[pair.B.Src][pair.B.Dst],
		tb.RSS[pair.B.Src][pair.A.Src])
	if *predict {
		name := *protocol
		if *armFlag != "" {
			name = *armFlag
		}
		predictPair(tb, pair, name, *seed)
	}

	if mob.Active() {
		if *armFlag == "" {
			fmt.Fprintln(os.Stderr, "-mobility needs the registry path: pass -arm (e.g. -arm cmap)")
			os.Exit(2)
		}
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "-mobility needs the serial engine; drop -shards")
			os.Exit(2)
		}
		fmt.Printf("mobility: %s\n", mob)
	}
	if *shards > 1 && *armFlag == "" {
		// The legacy -protocol microscope is serial-only; sharding runs
		// through the registry wiring.
		fmt.Fprintln(os.Stderr, "-shards needs the registry path: pass -arm (e.g. -arm cmap)")
		os.Exit(2)
	}
	if *ckptPath != "" || *resumePath != "" {
		if *armFlag == "" {
			fmt.Fprintln(os.Stderr, "-checkpoint/-resume need the registry path: pass -arm (e.g. -arm cmap)")
			os.Exit(2)
		}
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "-checkpoint/-resume apply to the single-trial microscope, not -trials replications")
			os.Exit(2)
		}
	}

	// trial dispatches one replay: through the registry for -arm, through
	// the protocol-specific microscope for the legacy -protocol names.
	trial := func(seed uint64, detail bool, traceN int) trialResult {
		if *armFlag != "" {
			return runTrialArm(tb, pair, *armFlag, spec, mob, sim.Duration(*duration), seed, *shards, detail)
		}
		return runTrial(tb, pair, *protocol, spec, sim.Duration(*duration), seed, detail, traceN)
	}
	if *trials <= 1 {
		// The original single-run microscope: channel randomness comes
		// from the same master-seed stream as the topology sampling.
		trialSeed := rng.Uint64()
		var res trialResult
		if *ckptPath != "" || *resumePath != "" {
			res = runTrialArmCheckpointed(tb, pair, *armFlag, spec, mob, sim.Duration(*duration),
				trialSeed, *shards, *ckptPath, sim.Duration(*ckptEvery), *resumePath)
		} else {
			res = trial(trialSeed, true, *traceN)
		}
		fmt.Printf("aggregate: %.2f Mb/s\n", res.agg)
		return
	}

	// Replications: each trial's seed is a pure function of the master
	// seed and the trial index, so any -parallel value reproduces the
	// same numbers in the same order.
	results := runner.Map(runner.Config{Workers: *parallel}, *trials, func(i int) trialResult {
		return trial(*seed+uint64(i)*0x9e37+1, false, 0)
	})
	var agg, a, b stats.Dist
	var pooled stats.Latency
	var drops uint64
	for i, r := range results {
		fmt.Printf("trial %2d: flow1 %.2f  flow2 %.2f  aggregate %.2f Mb/s\n", i, r.flows[0], r.flows[1], r.agg)
		a.Add(r.flows[0])
		b.Add(r.flows[1])
		agg.Add(r.agg)
		pooled.Merge(r.lats[0])
		pooled.Merge(r.lats[1])
		drops += r.drops
	}
	fmt.Printf("aggregate over %d trials: mean %.2f  median %.2f  std %.2f  min %.2f  max %.2f Mb/s\n",
		*trials, agg.Mean(), agg.Median(), agg.Std(), agg.Min(), agg.Max())
	fmt.Printf("flow1 mean %.2f Mb/s  flow2 mean %.2f Mb/s\n", a.Mean(), b.Mean())
	if spec.Kind != traffic.Saturated {
		fmt.Printf("latency pooled over trials: p50 %.2f  p95 %.2f  p99 %.2f ms (n=%d); tail drops %d\n",
			pooled.P50(), pooled.P95(), pooled.P99(), pooled.N(), drops)
	}
}
