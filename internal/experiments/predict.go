package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// analyticModel reads the oracle's model of arm p off its registry
// entry: every cmap spec is modelled with its own Config, window and
// virtual-packet size included; a csma arm with carrier sense and ACKs
// on and no RTS/CTS (cs@<dBm> members included) is modelled with its
// Config, its carrier-sense threshold shifting the extracted sensing
// graph. The other ablations have no analytic counterpart.
func analyticModel(p Protocol) (analytic.Options, analytic.ExtractConfig, bool) {
	a, err := mac.Lookup(string(p))
	if err != nil {
		return analytic.Options{}, analytic.ExtractConfig{}, false
	}
	switch a := a.(type) {
	case interface{ Config() core.Config }:
		return analytic.Options{Arm: analytic.ArmCMAP, CMAP: a.Config()}, analytic.ExtractConfig{}, true
	case interface{ Config() csma.Config }:
		c := a.Config()
		if c.CarrierSense && c.LinkACKs && !c.RTSCTS {
			return analytic.Options{Arm: analytic.ArmCSMA, CSMA: c}, analytic.ExtractConfig{CSThresholdDBm: c.CSThresholdDBm}, true
		}
	}
	return analytic.Options{}, analytic.ExtractConfig{}, false
}

// PredictFlows is the oracle counterpart of runFlows: it extracts the
// conflict graph for the given flows from a fresh build of the testbed's
// medium (read-only — no simulation runs) and solves the fixed point for
// saturated per-flow goodput under the given arm.
func PredictFlows(tb *topo.Testbed, flows []topo.Link, p Protocol, opt Options) (*analytic.Result, error) {
	model, ec, ok := analyticModel(p)
	if !ok {
		return nil, fmt.Errorf("experiments: no analytic model for arm %q", string(p))
	}
	m := tb.Build(sim.NewScheduler(), sim.NewRNG(opt.Seed).Stream(1))
	ec.Rate = opt.Rate
	g, err := analytic.Extract(m, flows, ec)
	if err != nil {
		return nil, err
	}
	return analytic.Solve(g, model), nil
}

// PredictFigure predicts one of the paper's pair figures by name —
// "exposed" (Figure 12), "inrange" (Figure 13) or "hidden" (Figure 15)
// — restricted to the arms the oracle models: the simulated figure's
// (pair, arm) trials, each folded through PredictFlows instead of the
// simulator into the same result shape.
func PredictFigure(name string, tb *topo.Testbed, opt Options) (*PairExperiment, error) {
	d, ok := pairDraws[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (want exposed, inrange or hidden)", name)
	}
	tb = tb.Shared()
	ex := newPairExperiment(strings.Replace(d.title, ":", " (predicted):", 1), []Protocol{CSMAOn, CMAP})
	for _, tr := range pairTrials(nil, tb, d.pairs(tb, opt), ex.Arms, &opt) {
		res, err := PredictFlows(tr.tb, tr.flows, tr.arm, *tr.opt)
		if err != nil {
			return nil, err
		}
		rs := make([]FlowResult, len(tr.flows))
		for i, l := range tr.flows {
			rs[i] = FlowResult{Link: l, Mbps: res.FlowMbps[i]}
		}
		ex.add(tr.arm, rs)
	}
	return ex, nil
}

// ScreenScenario is one named topology entering the analytic screen.
type ScreenScenario struct {
	Name  string
	TB    *topo.Testbed
	Flows []topo.Link
}

// ScreenPoint is one (scenario × load) grid point of an analytic screen.
type ScreenPoint struct {
	Scenario string
	// LoadMbps is the offered load per flow; Flows the flow count.
	LoadMbps float64
	Flows    int
	// Caps and Preds hold, per screened arm, the solved saturated
	// aggregate capacity and the predicted delivered aggregate at this
	// load (min(offered, capacity)); an arm not screened reads zero.
	Caps, Preds map[Protocol]float64
	// Utilization is offered aggregate over the smaller arm capacity.
	Utilization float64
	// Simulate marks points the closed form cannot already decide;
	// Reason says why ("knee": near saturation, where queueing dynamics
	// the model ignores dominate; "arms-differ": the arms' predictions
	// diverge enough that the choice of protocol matters).
	Simulate bool
	Reason   string
}

// ScreenResult is a full analytic screen plus its wall-clock cost.
type ScreenResult struct {
	Points  []ScreenPoint
	Elapsed time.Duration
}

// Flagged returns how many points were tagged for full simulation.
func (r *ScreenResult) Flagged() int {
	n := 0
	for _, p := range r.Points {
		if p.Simulate {
			n++
		}
	}
	return n
}

// Format renders the screen as an aligned table.
func (r *ScreenResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %6s %9s %9s %9s %9s %6s %s\n",
		"scenario", "load", "flows", "csma-cap", "cmap-cap", "pred-csma", "pred-cmap", "util", "simulate?")
	for _, p := range r.Points {
		tag := "-"
		if p.Simulate {
			tag = p.Reason
		}
		fmt.Fprintf(&b, "%-16s %8.2f %6d %9.2f %9.2f %9.2f %9.2f %6.2f %s\n",
			p.Scenario, p.LoadMbps, p.Flows, p.Caps[CSMAOn], p.Caps[CMAP], p.Preds[CSMAOn], p.Preds[CMAP], p.Utilization, tag)
	}
	fmt.Fprintf(&b, "%d points screened in %v; %d flagged for simulation\n",
		len(r.Points), r.Elapsed.Round(time.Millisecond), r.Flagged())
	return b.String()
}

// AnalyticScreen evaluates every (scenario × load) grid point through
// the oracle: two fixed-point solves per scenario give both arms'
// saturated capacities, and each load point is classified against them.
// A grid that takes minutes to simulate screens in milliseconds; only
// points near an arm's saturation knee, or where the two arms disagree
// materially, are tagged for full simulation.
func AnalyticScreen(scens []ScreenScenario, loads []float64, opt Options) (*ScreenResult, error) {
	start := time.Now()
	arms, err := screenArms(opt)
	if err != nil {
		return nil, err
	}
	out := &ScreenResult{}
	for _, sc := range scens {
		caps := map[Protocol]float64{}
		tb := sc.TB.Shared()
		for _, arm := range arms {
			res, err := PredictFlows(tb, sc.Flows, arm, opt)
			if err != nil {
				return nil, err
			}
			if !res.Converged {
				return nil, fmt.Errorf("experiments: %s/%v fixed point did not converge (residual %.2e after %d iterations)",
					sc.Name, arm, res.Residual, res.Iterations)
			}
			caps[arm] = res.AggregateMbps()
		}
		minCap := 0.0
		for i, arm := range arms {
			if i == 0 || caps[arm] < minCap {
				minCap = caps[arm]
			}
		}
		for _, load := range loads {
			offered := load * float64(len(sc.Flows))
			p := ScreenPoint{
				Scenario: sc.Name,
				LoadMbps: load,
				Flows:    len(sc.Flows),
				Caps:     map[Protocol]float64{},
				Preds:    map[Protocol]float64{},
			}
			for _, arm := range arms {
				p.Caps[arm] = caps[arm]
				p.Preds[arm] = min(offered, caps[arm])
			}
			if minCap > 0 {
				p.Utilization = offered / minCap
			}
			var reasons []string
			if p.Utilization >= 0.7 && p.Utilization <= 1.3 {
				reasons = append(reasons, "knee")
			}
			lo, hi := 0.0, 0.0
			for i, arm := range arms {
				pr := p.Preds[arm]
				if i == 0 || pr < lo {
					lo = pr
				}
				if i == 0 || pr > hi {
					hi = pr
				}
			}
			if lo > 0 && hi/lo >= 1.25 {
				reasons = append(reasons, "arms-differ")
			}
			if len(reasons) > 0 {
				p.Simulate = true
				p.Reason = strings.Join(reasons, ",")
			}
			out.Points = append(out.Points, p)
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// screenArms resolves the arm set a screen covers: Options.Arms when
// set (restricted to arms the oracle models, erroring when none are),
// else the default CSMA-vs-CMAP comparison.
func screenArms(opt Options) ([]Protocol, error) {
	var arms []Protocol
	for _, a := range opt.armsOr([]Protocol{CSMAOn, CMAP}) {
		if _, _, ok := analyticModel(a); ok {
			arms = append(arms, a)
		}
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("experiments: none of the requested arms %v has an analytic model", opt.Arms)
	}
	return arms, nil
}

// SimulateScreenGrid runs the full simulator over the same (scenario ×
// load) grid an analytic screen covers: each point drives every flow with
// Poisson arrivals at the point's offered load under both modelled arms.
// It exists to measure the screen's speedup factor and its agreement
// with ground truth; trials fan out across the worker pool.
func SimulateScreenGrid(scens []ScreenScenario, loads []float64, opt Options) (map[string]map[float64]map[Protocol]float64, time.Duration, error) {
	start := time.Now()
	arms, err := screenArms(opt)
	if err != nil {
		return nil, 0, err
	}
	trials := make([]trial, 0, len(scens)*len(loads)*len(arms))
	for sci, sc := range scens {
		tb := sc.TB.Shared()
		for _, load := range loads {
			o := opt
			o.Traffic = traffic.Spec{Kind: traffic.Poisson}.WithOfferedMbps(load, mac.DefaultPayload)
			for _, arm := range arms {
				trials = append(trials, trial{tb, sc.Flows, arm, &o,
					opt.Seed + uint64(sci)*7919 + uint64(load*1000)*13 + arm.seedSalt()*104729})
			}
		}
	}
	rs, _ := runTrials(opt.pool(), trials, nil, nil)
	out := map[string]map[float64]map[Protocol]float64{}
	t := 0
	for _, sc := range scens {
		if out[sc.Name] == nil {
			out[sc.Name] = map[float64]map[Protocol]float64{}
		}
		for _, load := range loads {
			if out[sc.Name][load] == nil {
				out[sc.Name][load] = map[Protocol]float64{}
			}
			for _, arm := range arms {
				out[sc.Name][load][arm] = aggregate(rs[t])
				t++
			}
		}
	}
	return out, time.Since(start), nil
}

// strongestDisjointLinks greedily picks up to k unicast links in
// descending isolation-PRR order such that no node serves two links —
// a deterministic flow set for generator layouts where the paper's
// pair-selection methodology finds no match.
func strongestDisjointLinks(tb *topo.Testbed, k int) []topo.Link {
	n := len(tb.PRR)
	type cand struct {
		l   topo.Link
		prr float64
	}
	var cands []cand
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && tb.PRR[a][b] > 0.5 {
				cands = append(cands, cand{topo.Link{Src: a, Dst: b}, tb.PRR[a][b]})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].prr > cands[j].prr })
	used := make([]bool, n)
	var out []topo.Link
	for _, c := range cands {
		if len(out) == k {
			break
		}
		if used[c.l.Src] || used[c.l.Dst] {
			continue
		}
		used[c.l.Src], used[c.l.Dst] = true, true
		out = append(out, c.l)
	}
	return out
}

// StandardScreenScenarios assembles the screening portfolio: the four
// paper topology classes drawn from the 50-node testbed plus one
// instance of each Scenario generator, sized so the O(n²) measurement
// pass stays cheap.
func StandardScreenScenarios(seed uint64) []ScreenScenario {
	tb := topo.NewTestbed(50, seed)
	rng := sim.NewRNG(seed ^ 0x5c2ee4)
	var out []ScreenScenario
	if ps := tb.ExposedPairs(rng, 1); len(ps) == 1 {
		out = append(out, ScreenScenario{Name: "exposed-pair", TB: tb, Flows: []topo.Link{ps[0].A, ps[0].B}})
	}
	if ps := tb.InRangePairs(rng, 1); len(ps) == 1 {
		out = append(out, ScreenScenario{Name: "inrange-pair", TB: tb, Flows: []topo.Link{ps[0].A, ps[0].B}})
	}
	if ps := tb.HiddenPairs(rng, 1); len(ps) == 1 {
		out = append(out, ScreenScenario{Name: "hidden-pair", TB: tb, Flows: []topo.Link{ps[0].A, ps[0].B}})
	}
	if cells := tb.APRegions(); len(cells) >= 3 {
		flows := make([]topo.Link, 0, 3)
		for _, cell := range cells[:3] {
			flows = append(flows, topo.Link{Src: cell.AP, Dst: cell.Clients[rng.Intn(len(cell.Clients))]})
		}
		out = append(out, ScreenScenario{Name: "ap-cells", TB: tb, Flows: flows})
	}
	grid := topo.GridCity(2, 2, 4, 300, seed).Testbed()
	var gflows []topo.Link
	if ps := grid.InRangePairs(rng, 2); len(ps) > 0 {
		gflows = pairFlows(grid.N, ps)
	} else {
		// Dense street blocks rarely yield the paper's specific pair
		// geometry; fall back to the strongest node-disjoint links so the
		// generator still enters the screen.
		gflows = strongestDisjointLinks(grid, 4)
	}
	if len(gflows) > 0 {
		out = append(out, ScreenScenario{Name: "gridcity", TB: grid, Flows: gflows})
	}
	clusters := topo.ClusteredAPs(3, 3, 400, 12, seed)
	ctb := clusters.Testbed()
	var cflows []topo.Link
	for _, ap := range clusters.APs {
		// The AP's clients immediately follow it in generation order.
		cflows = append(cflows, topo.Link{Src: ap + 1, Dst: ap})
	}
	out = append(out, ScreenScenario{Name: "clusters", TB: ctb, Flows: cflows})
	disk := topo.UniformDisk(30, 200, seed).Testbed()
	if ps := disk.InRangePairs(rng, 2); len(ps) > 0 {
		out = append(out, ScreenScenario{Name: "uniformdisk", TB: disk, Flows: pairFlows(disk.N, ps)})
	}
	return out
}

// pairFlows lists both flows of each pair over n nodes, keeping a flow
// only if the set still passes topo.CheckFlows: independently drawn
// pairs can share a sender or a receiver.
func pairFlows(n int, pairs []topo.LinkPair) []topo.Link {
	var flows []topo.Link
	for _, p := range pairs {
		for _, f := range [...]topo.Link{p.A, p.B} {
			if topo.CheckFlows(n, append(flows[:len(flows):len(flows)], f)) == nil {
				flows = append(flows, f)
			}
		}
	}
	return flows
}
