package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Protocol names one arm from the internal/mac registry. Its value IS
// the registry name, so any registered arm — including cs@<dBm> family
// members — can enter any experiment.
type Protocol string

// The protocol arms of §5. The CSMA arms are 802.11 DCF with the
// carrier-sense and link-ACK switches the paper toggles; CMAP and
// CMAPWin1 are the conflict-map link layer with Nwindow 8 and 1;
// RTSCTS is DCF with the RTS/CTS handshake and NAV virtual carrier
// sense.
const (
	CSMAOn        Protocol = "csma" // "CS, acks" — the status quo
	CSMAOnNoAcks  Protocol = "csma-noack"
	CSMAOffAcks   Protocol = "csma-nocs"       // "CS off, acks"
	CSMAOffNoAcks Protocol = "csma-nocs-noack" // "CS off, no acks"
	CMAP          Protocol = "cmap"
	CMAPWin1      Protocol = "cmap1" // CMAP with a send window of one virtual packet
	RTSCTS        Protocol = "rtscts"
)

// CSAt returns the carrier-sense-threshold family member at thr dBm
// (e.g. CSAt(-82) == Protocol("cs@-82")).
func CSAt(thr float64) Protocol {
	return Protocol(fmt.Sprintf("cs@%g", thr))
}

// String returns the label used in the paper's figure legends.
func (p Protocol) String() string {
	if a, err := mac.Lookup(string(p)); err == nil {
		return a.Label()
	}
	return string(p)
}

// seedSalt is the arm's pinned per-trial seed offset. The legacy arms
// keep the integer values Protocol had when it was an enum, so every
// golden trace recorded before the registry existed stays bit-identical.
func (p Protocol) seedSalt() uint64 {
	return mac.MustLookup(string(p)).SeedSalt()
}

// ParseArms resolves a comma-separated list of registry arm names and
// specs (e.g. "csma,cmap:win=2,rtscts,cs@-82") against the MAC registry
// and returns their canonical names, so "cmap:win=1" comes back as
// CMAPWin1. Two spellings of one arm ("cmap:win=1,cmap1") are an
// error: a figure would run that arm twice.
func ParseArms(s string) ([]Protocol, error) {
	var out []Protocol
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, err := mac.Lookup(name)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, Protocol(a.Name())) {
			return nil, fmt.Errorf("experiments: arm %s given twice (the second time as %q)", a.Name(), name)
		}
		out = append(out, Protocol(a.Name()))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no arms in %q", s)
	}
	return out, nil
}

// Options scales the experiments. The zero value is unusable; use
// Defaults (paper-exact) or Quick (CI-sized).
type Options struct {
	// Seed drives topology generation, selection and all protocol
	// randomness. The same seed reproduces identical numbers.
	Seed uint64
	// Nodes is the testbed size (the paper's is 50).
	Nodes int
	// Duration is one run's virtual time; Warmup is how much of its start
	// is excluded from measurement. The paper runs 100 s and measures the
	// last 60 s.
	Duration, Warmup sim.Time
	// Pairs is the number of topologies per experiment (the paper uses 50
	// link pairs, 500 interferer triples, 10 runs per AP or sender
	// count, 10 meshes).
	Pairs int
	// Triples is the §5.4 sample count.
	Triples int
	// APRuns is the number of runs at each x-position of Figures 17–19:
	// per access-point count in Figures 17 and 18, and per concurrent
	// sender count in Figure 19.
	APRuns int
	// Meshes is the number of §5.7 topologies.
	Meshes int
	// Rate is the common data bit-rate.
	Rate phy.RateID
	// Workers is the number of goroutines trials fan out across. Zero
	// selects GOMAXPROCS; one forces fully serial execution. Results are
	// bit-identical at every worker count: all randomness is derived
	// from per-trial seeds fixed before dispatch — which is why a
	// campaign's config hash (the JSON of these Options) leaves it out.
	Workers int `json:"-"`
	// Progress, when non-nil, is called after each completed trial of
	// an experiment or sweep with (done, total) counts; unhashed like
	// Workers. A pair figure or sweep counts one trial per (point, pair,
	// arm), so Figure 20's three rates are one count; Figure 14 counts
	// two per triple (S→R alone and with the interferer) and the
	// calibration two.
	Progress func(done, total int) `json:"-"`
	// Traffic selects the arrival model experiment flows are driven by.
	// The zero value is the saturated (always-backlogged) workload of
	// the paper's methodology; any other kind routes runs through
	// per-flow traffic.Sources with finite backlogs and per-packet
	// latency measurement.
	Traffic traffic.Spec
	// Arms, when non-empty, overrides the arm set of every experiment
	// that compares protocols (pair figures, the offered-load sweep, the
	// analytic screen). Empty keeps each figure's paper-default arms.
	Arms []Protocol
	// Mobility moves nodes during each run (internal/mobility); each
	// position epoch marks the medium's delivery lists stale, and a list
	// is rebuilt when the run next reads it. The zero value keeps every scenario static — the
	// golden-trace path.
	Mobility mobility.Spec
}

// armsOr returns opt.Arms if set, else the figure's default arm list.
func (o Options) armsOr(def []Protocol) []Protocol {
	if len(o.Arms) > 0 {
		return o.Arms
	}
	return def
}

// pool returns the runner configuration these options describe.
func (o Options) pool() runner.Config {
	return runner.Config{Workers: o.Workers, OnProgress: o.Progress}
}

// Defaults returns the paper-exact scale: 100-second runs measured over
// the last 60 seconds, 50 topologies per experiment.
func Defaults(seed uint64) Options {
	return Options{
		Seed:     seed,
		Nodes:    50,
		Duration: 100 * sim.Second,
		Warmup:   40 * sim.Second,
		Pairs:    50,
		Triples:  500,
		APRuns:   10,
		Meshes:   10,
		Rate:     phy.Rate6Mbps,
	}
}

// Quick returns a scaled-down configuration for tests and benchmarks:
// the same protocol dynamics over shorter runs and fewer topologies.
func Quick(seed uint64) Options {
	return Options{
		Seed:     seed,
		Nodes:    50,
		Duration: 12 * sim.Second,
		Warmup:   6 * sim.Second,
		Pairs:    10,
		Triples:  60,
		APRuns:   3,
		Meshes:   4,
		Rate:     phy.Rate6Mbps,
	}
}

// FlowResult is one sender→receiver flow's outcome in a run.
type FlowResult struct {
	Link topo.Link
	Mbps float64
	// CMAP-only visibility counters (Figures 16 and 19): virtual packets
	// the sender transmitted, and of those, how many the receiver saw a
	// header / a header-or-trailer for.
	VpktsSent       uint64
	VpktsHeader     uint64
	VpktsHdrOrTrail uint64
	// Traffic-mode measurements, populated only when Options.Traffic is
	// not saturated: arrival-process counters and per-packet delivery
	// latency inside the measurement window (nil otherwise).
	OfferedPkts   uint64
	AcceptedPkts  uint64
	DroppedPkts   uint64
	DeliveredPkts uint64
	Lat           *stats.Latency
}

// HeaderFrac returns the fraction of transmitted virtual packets whose
// header the receiver decoded.
func (r FlowResult) HeaderFrac() float64 {
	if r.VpktsSent == 0 {
		return 0
	}
	return float64(r.VpktsHeader) / float64(r.VpktsSent)
}

// HdrOrTrailFrac returns the fraction of transmitted virtual packets for
// which the receiver decoded the header or the trailer.
func (r FlowResult) HdrOrTrailFrac() float64 {
	if r.VpktsSent == 0 {
		return 0
	}
	return float64(r.VpktsHdrOrTrail) / float64(r.VpktsSent)
}

// runFlows runs the given unicast flows over a fresh build of the
// testbed under one protocol arm and returns per-flow goodput (and
// CMAP visibility counters). Options.Traffic and Options.Mobility pick
// the workload and motion; the wiring is NewFlowSim's.
func runFlows(tb *topo.Testbed, flows []topo.Link, p Protocol, opt Options, runSeed uint64) []FlowResult {
	fs, err := NewFlowSim(tb, FlowSimConfig{
		Arm:      p,
		Flows:    flows,
		Duration: opt.Duration,
		Warmup:   opt.Warmup,
		Rate:     opt.Rate,
		Traffic:  opt.Traffic,
		Mobility: opt.Mobility,
		Seed:     runSeed,
	})
	if err != nil {
		// Arm names are validated where Options are assembled (ParseArms).
		panic(err)
	}
	fs.Run(opt.Duration)
	return fs.Results()
}

// aggregate sums the goodput of all flows in a run.
func aggregate(rs []FlowResult) float64 {
	var s float64
	for _, r := range rs {
		s += r.Mbps
	}
	return s
}

// PairExperiment is the common result shape of the two-flow experiments
// (Figures 12, 13, 15, 20): an aggregate-throughput distribution per arm.
type PairExperiment struct {
	Name  string
	Arms  []Protocol
	Dists map[Protocol]*stats.Dist
	// Flows keeps per-arm per-run flow results for follow-on analyses
	// (Figure 16 uses the CMAP runs).
	Flows map[Protocol][][]FlowResult
}

// newPairExperiment returns an empty experiment over arms. A repeated
// arm would fold two runs of every pair into one distribution, so it
// panics: ParseArms refuses one on the way in.
func newPairExperiment(name string, arms []Protocol) *PairExperiment {
	ex := &PairExperiment{
		Name:  name,
		Arms:  arms,
		Dists: map[Protocol]*stats.Dist{},
		Flows: map[Protocol][][]FlowResult{},
	}
	for _, arm := range arms {
		if ex.Dists[arm] != nil {
			panic(fmt.Sprintf("experiments: arm %s repeated", arm))
		}
		ex.Dists[arm] = &stats.Dist{}
	}
	return ex
}

// add folds one run of a pair under arm into the experiment.
func (ex *PairExperiment) add(arm Protocol, rs []FlowResult) {
	ex.Dists[arm].Add(aggregate(rs))
	ex.Flows[arm] = append(ex.Flows[arm], rs)
}

// trial is one simulated run of a flow figure: its flows over a testbed
// under one arm, at one Options point (rate, traffic, motion) and a seed
// fixed by the figure's own formula.
type trial struct {
	tb    *topo.Testbed
	flows []topo.Link
	arm   Protocol
	opt   *Options
	seed  uint64
}

// runTrials runs every trial on the worker pool and returns their
// results in list order, identical at every worker count: each trial
// builds its own medium and draws all its randomness from its seed.
// keys[t] names trial t in camp's manifest; a nil camp needs no keys
// and cannot fail.
func runTrials(pool runner.Config, trials []trial, camp *checkpoint.Campaign, keys []string) ([][]FlowResult, error) {
	return resumableMap(camp, pool, len(trials), func(t int) string { return keys[t] }, func(t int) []FlowResult {
		tr := trials[t]
		return runFlows(tr.tb, tr.flows, tr.arm, *tr.opt, tr.seed)
	})
}

// pairTrials appends one point of a pair figure to trials: every pair
// under every arm, pair-major.
func pairTrials(trials []trial, tb *topo.Testbed, pairs []topo.LinkPair, arms []Protocol, opt *Options) []trial {
	for i, pair := range pairs {
		flows := []topo.Link{pair.A, pair.B}
		for _, arm := range arms {
			trials = append(trials, trial{tb, flows, arm, opt, opt.Seed + uint64(i)*7919 + arm.seedSalt()*104729})
		}
	}
	return trials
}

// sweepPairs measures every pair under every arm at every point of a
// sweep (its Options: rate, traffic, motion, seed) into one
// PairExperiment per point. The trials of all points fan out once, on
// points[0]'s worker pool. key names trial (p, i, arm) in camp's
// manifest; a nil camp cannot fail.
func sweepPairs(tb *topo.Testbed, pairs []topo.LinkPair, arms []Protocol, points []Options, camp *checkpoint.Campaign, key func(p, i int, arm Protocol) string) ([]*PairExperiment, error) {
	if len(points) == 0 {
		return nil, nil
	}
	tb = tb.Shared()
	trials := make([]trial, 0, len(points)*len(pairs)*len(arms))
	var keys []string
	for p := range points {
		trials = pairTrials(trials, tb, pairs, arms, &points[p])
		for i := 0; camp != nil && i < len(pairs); i++ {
			for _, arm := range arms {
				keys = append(keys, key(p, i, arm))
			}
		}
	}
	results, err := runTrials(points[0].pool(), trials, camp, keys)
	if err != nil {
		return nil, err
	}
	out := make([]*PairExperiment, len(points))
	per := len(pairs) * len(arms)
	for p := range out {
		out[p] = newPairExperiment("", arms)
		for t := p * per; t < (p+1)*per; t++ {
			out[p].add(trials[t].arm, results[t])
		}
	}
	return out, nil
}

// runPairExperiment measures every pair under every arm: the one-point
// sweep.
func runPairExperiment(name string, tb *topo.Testbed, pairs []topo.LinkPair, arms []Protocol, opt Options) *PairExperiment {
	exs, _ := sweepPairs(tb, pairs, arms, []Options{opt}, nil, nil)
	exs[0].Name = name
	return exs[0]
}

// Median returns the median aggregate throughput of one arm, or zero
// for an arm the experiment did not run (possible whenever Options.Arms
// overrode the figure's defaults).
func (ex *PairExperiment) Median(p Protocol) float64 {
	d, ok := ex.Dists[p]
	if !ok {
		return 0
	}
	return d.Median()
}

// Ran reports whether every given arm was part of this experiment —
// the guard callers need before quoting cross-arm gains when
// Options.Arms may have replaced the defaults.
func (ex *PairExperiment) Ran(arms ...Protocol) bool {
	for _, a := range arms {
		if _, ok := ex.Dists[a]; !ok {
			return false
		}
	}
	return true
}

// Gain returns the ratio of medians a/b.
func (ex *PairExperiment) Gain(a, b Protocol) float64 {
	den := ex.Median(b)
	if den == 0 {
		return 0
	}
	return ex.Median(a) / den
}

// Format renders the experiment as percentile columns per arm (the
// textual stand-in for the paper's CDF plots).
func (ex *PairExperiment) Format() string {
	names := make([]string, len(ex.Arms))
	dists := make([]*stats.Dist, len(ex.Arms))
	for i, a := range ex.Arms {
		names[i] = a.String()
		dists[i] = ex.Dists[a]
	}
	return ex.Name + " (aggregate Mb/s)\n" + stats.FormatCDFs(names, dists)
}
