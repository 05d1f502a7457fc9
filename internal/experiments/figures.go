package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/csma"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Calibration reproduces §4.2's single-link comparison: CMAP and 802.11
// goodput over the same strong link (paper: 5.04 vs 5.07 Mb/s at 6 Mb/s).
type Calibration struct {
	CMAPMbps, Dot11Mbps float64
}

// RunCalibration measures both protocols on the strongest potential link.
func RunCalibration(tb *topo.Testbed, opt Options) Calibration {
	links := tb.PotentialLinks()
	if len(links) == 0 {
		return Calibration{}
	}
	best := links[0]
	for _, l := range links[1:] {
		if tb.RSS[l.Src][l.Dst] > tb.RSS[best.Src][best.Dst] {
			best = l
		}
	}
	tb = tb.Shared()
	flows := []topo.Link{best}
	rs, _ := runTrials(opt.pool(), []trial{
		{tb, flows, CMAP, &opt, opt.Seed + 11},
		{tb, flows, CSMAOn, &opt, opt.Seed + 13},
	}, nil, nil)
	return Calibration{CMAPMbps: rs[0][0].Mbps, Dot11Mbps: rs[1][0].Mbps}
}

// pairDraw is how one of the paper's pair figures samples its link
// pairs, from its own stream of the seed, and which arms it compares
// unless Options.Arms overrides them.
type pairDraw struct {
	title  string
	salt   uint64
	sample func(tb *topo.Testbed, rng *sim.RNG, n int) []topo.LinkPair
	arms   []Protocol
}

// pairDraws holds Figures 12, 13 and 15 under PredictFigure's names;
// the figures, their predictions and the carrier-sense sweep read them.
var pairDraws = map[string]pairDraw{
	"exposed": {"Figure 12: exposed terminals", 0xf16, (*topo.Testbed).ExposedPairs, []Protocol{CSMAOn, CSMAOffNoAcks, CMAP, CMAPWin1}},
	"inrange": {"Figure 13: senders in range", 0xf13, (*topo.Testbed).InRangePairs, []Protocol{CSMAOn, CSMAOffAcks, CSMAOffNoAcks, CMAP}},
	"hidden":  {"Figure 15: hidden terminals", 0xf15, (*topo.Testbed).HiddenPairs, []Protocol{CSMAOn, CSMAOffAcks, CMAP}},
}

// pairs draws the figure's opt.Pairs link pairs.
func (d pairDraw) pairs(tb *topo.Testbed, opt Options) []topo.LinkPair {
	return d.sample(tb, sim.NewRNG(opt.Seed^d.salt), opt.Pairs)
}

// run measures the figure: its pairs under its arms.
func (d pairDraw) run(tb *topo.Testbed, opt Options) *PairExperiment {
	return runPairExperiment(d.title, tb, d.pairs(tb, opt), opt.armsOr(d.arms), opt)
}

// ExposedTerminals reproduces Figure 12: 50 exposed-terminal
// configurations (§5.2 constraints) under CS+acks, CS-off+no-acks, CMAP,
// and CMAP with window 1. The paper's headline: CMAP ≈2× the status quo;
// window 1 only ≈1.5×.
func ExposedTerminals(tb *topo.Testbed, opt Options) *PairExperiment {
	return pairDraws["exposed"].run(tb, opt)
}

// InRangeSenders reproduces Figure 13: 50 pairs with in-range senders and
// no signal constraints (§5.3) under CS+acks, CS-off+acks,
// CS-off+no-acks, and CMAP. CMAP should track the better of deferring and
// concurrency on every pair.
func InRangeSenders(tb *topo.Testbed, opt Options) *PairExperiment {
	return pairDraws["inrange"].run(tb, opt)
}

// HiddenTerminals reproduces Figure 15: receivers reachable by both
// senders, senders out of range (§5.5), under CS+acks, CS-off+acks, and
// CMAP. CMAP's loss-driven backoff must keep it comparable to 802.11.
func HiddenTerminals(tb *topo.Testbed, opt Options) *PairExperiment {
	return pairDraws["hidden"].run(tb, opt)
}

// InterfererPoint is one Figure 14 scatter point.
type InterfererPoint struct {
	Triple topo.Triple
	// MinPRR is min(PRR(I→R), PRR(I→S)) measured in isolation.
	MinPRR float64
	// NormThroughput is S→R goodput with I active divided by S→R goodput
	// alone (both with carrier sense and ACKs disabled, §5.4).
	NormThroughput float64
}

// HiddenInterfererResult reproduces Figure 14 and §5.4's two derived
// numbers.
type HiddenInterfererResult struct {
	Points []InterfererPoint
	// HiddenFrac is the fraction of points in the bottom-left quadrant
	// (normalised throughput < 0.5 AND min PRR < 0.5): true hidden
	// interferers. The paper measures 8%.
	HiddenFrac float64
	// ExpectedCMAP is Σ p·1 + (1−p)·T over all points, the §5.4 estimate
	// of CMAP throughput under hidden interferers. The paper computes
	// 0.896.
	ExpectedCMAP float64
}

// HiddenInterferers runs the §5.4 measurement: for each (S, R, I) triple,
// S→R throughput alone and with I saturating, CS and ACKs disabled —
// two trials per triple, folded in triple order.
func HiddenInterferers(tb *topo.Testbed, opt Options) *HiddenInterfererResult {
	tb = tb.Shared()
	rng := sim.NewRNG(opt.Seed ^ 0xf14)
	drawn := tb.HiddenInterfererTriples(rng, opt.Triples)
	triples := make([]topo.Triple, 0, len(drawn))
	trials := make([]trial, 0, 2*len(drawn))
	for i, tr := range drawn {
		// The interferer saturates towards a fourth node, a sink that is
		// neither S nor R (its traffic's destination is irrelevant with
		// ACKs disabled); a three-node testbed has none.
		sink := 0
		for sink == tr.Src || sink == tr.Dst || sink == tr.Interferer {
			sink++
		}
		if sink >= tb.N {
			continue
		}
		seed := opt.Seed + uint64(i)*6551
		sr := topo.Link{Src: tr.Src, Dst: tr.Dst}
		triples = append(triples, tr)
		trials = append(trials,
			trial{tb, []topo.Link{sr}, CSMAOffNoAcks, &opt, seed},
			trial{tb, []topo.Link{sr, {Src: tr.Interferer, Dst: sink}}, CSMAOffNoAcks, &opt, seed + 1})
	}
	rs, _ := runTrials(opt.pool(), trials, nil, nil)
	res := &HiddenInterfererResult{}
	var sumExpected float64
	hidden := 0
	for j, tr := range triples {
		alone, both := rs[2*j][0].Mbps, rs[2*j+1][0].Mbps
		if alone <= 0 {
			continue
		}
		norm := min(both/alone, 1)
		pr, ps := tb.PRR[tr.Interferer][tr.Dst], tb.PRR[tr.Interferer][tr.Src]
		minPRR := math.Min(pr, ps)
		res.Points = append(res.Points, InterfererPoint{Triple: tr, MinPRR: minPRR, NormThroughput: norm})
		if norm < 0.5 && minPRR < 0.5 {
			hidden++
		}
		p := math.Max(pr+ps-1, 0)
		sumExpected += p*1 + (1-p)*norm
	}
	if len(res.Points) > 0 {
		res.HiddenFrac = float64(hidden) / float64(len(res.Points))
		res.ExpectedCMAP = sumExpected / float64(len(res.Points))
	}
	return res
}

// HeaderTrailerCDFs reproduces Figure 16 from the CMAP runs of the
// in-range (Figure 13) and hidden-terminal (Figure 15) experiments: CDFs
// of per-flow header-only and header-or-trailer reception fractions.
type HeaderTrailerCDFs struct {
	InRangeHeader, InRangeEither *stats.Dist
	HiddenHeader, HiddenEither   *stats.Dist
}

// HeaderTrailer extracts Figure 16 from two already-run experiments.
func HeaderTrailer(inRange, hidden *PairExperiment) *HeaderTrailerCDFs {
	h := &HeaderTrailerCDFs{
		InRangeHeader: &stats.Dist{}, InRangeEither: &stats.Dist{},
		HiddenHeader: &stats.Dist{}, HiddenEither: &stats.Dist{},
	}
	for _, run := range inRange.Flows[CMAP] {
		for _, fr := range run {
			h.InRangeHeader.Add(fr.HeaderFrac())
			h.InRangeEither.Add(fr.HdrOrTrailFrac())
		}
	}
	for _, run := range hidden.Flows[CMAP] {
		for _, fr := range run {
			h.HiddenHeader.Add(fr.HeaderFrac())
			h.HiddenEither.Add(fr.HdrOrTrailFrac())
		}
	}
	return h
}

// Format renders Figure 16's four series.
func (h *HeaderTrailerCDFs) Format() string {
	return "Figure 16: header/trailer reception fraction per flow\n" +
		stats.FormatCDFs(
			[]string{"in-range, header", "in-range, hdr|trl", "out-of-range, header", "out-of-range, hdr|trl"},
			[]*stats.Dist{h.InRangeHeader, h.InRangeEither, h.HiddenHeader, h.HiddenEither})
}

// APResult holds Figures 17 and 18: aggregate throughput per AP count
// and arm, plus the pooled per-sender distribution.
type APResult struct {
	Ns        []int
	Arms      []Protocol
	Mean      map[Protocol]map[int]float64 // arm → N → mean aggregate Mb/s
	Std       map[Protocol]map[int]float64
	PerSender map[Protocol]*stats.Dist
}

// AccessPoint reproduces the §5.6 WLAN experiment: N = 3..6 access-point
// cells with one saturated flow each (random client, random direction),
// ten client draws per N, under CS-on, CS-off, and CMAP.
func AccessPoint(tb *topo.Testbed, opt Options) *APResult {
	tb = tb.Shared()
	arms := opt.armsOr([]Protocol{CSMAOn, CSMAOffAcks, CMAP})
	res := &APResult{
		Ns:        []int{3, 4, 5, 6},
		Arms:      arms,
		Mean:      map[Protocol]map[int]float64{},
		Std:       map[Protocol]map[int]float64{},
		PerSender: map[Protocol]*stats.Dist{},
	}
	for _, a := range arms {
		res.Mean[a] = map[int]float64{}
		res.Std[a] = map[int]float64{}
		res.PerSender[a] = &stats.Dist{}
	}
	cells := tb.APRegions()
	ns := slices.DeleteFunc(slices.Clone(res.Ns), func(n int) bool { return n > len(cells) })
	rng := sim.NewRNG(opt.Seed ^ 0xf17)
	// Draw every run's client/direction choices serially first — the rng
	// consumption order is part of the experiment's definition — then fan
	// the (n, run, arm) trials out across the worker pool.
	var trials []trial
	for _, n := range ns {
		for run := 0; run < opt.APRuns; run++ {
			// Adjacent regions when fewer than all cells are used.
			flows := make([]topo.Link, 0, n)
			for _, cell := range cells[:n] {
				client := cell.Clients[rng.Intn(len(cell.Clients))]
				if rng.Bool(0.5) {
					flows = append(flows, topo.Link{Src: cell.AP, Dst: client})
				} else {
					flows = append(flows, topo.Link{Src: client, Dst: cell.AP})
				}
			}
			for _, arm := range arms {
				trials = append(trials, trial{tb, flows, arm, &opt, opt.Seed + uint64(n*1000+run)*31 + arm.seedSalt()})
			}
		}
	}
	rs, _ := runTrials(opt.pool(), trials, nil, nil)
	// Each N's runs fold into one experiment; Figure 18 pools every
	// sender of every N.
	per := opt.APRuns * len(arms)
	for k, n := range ns {
		ex := newPairExperiment("", arms)
		for t := k * per; t < (k+1)*per; t++ {
			ex.add(trials[t].arm, rs[t])
		}
		for _, arm := range arms {
			res.Mean[arm][n] = ex.Dists[arm].Mean()
			res.Std[arm][n] = ex.Dists[arm].Std()
			for _, run := range ex.Flows[arm] {
				for _, fr := range run {
					res.PerSender[arm].Add(fr.Mbps)
				}
			}
		}
	}
	return res
}

// Format renders Figure 17's grouped bars and Figure 18's medians.
func (r *APResult) Format() string {
	var b strings.Builder
	b.WriteString("Figure 17: AP topology mean aggregate throughput (Mb/s)\n")
	fmt.Fprintf(&b, "%-16s", "arm \\ N")
	for _, n := range r.Ns {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteString("\n")
	for _, arm := range r.Arms {
		fmt.Fprintf(&b, "%-16s", arm)
		for _, n := range r.Ns {
			fmt.Fprintf(&b, "%7.2f±%-4.1f", r.Mean[arm][n], r.Std[arm][n])
		}
		b.WriteString("\n")
	}
	b.WriteString("Figure 18: per-sender throughput (Mb/s)\n")
	names := []string{}
	dists := []*stats.Dist{}
	for _, arm := range r.Arms {
		names = append(names, arm.String())
		dists = append(dists, r.PerSender[arm])
	}
	b.WriteString(stats.FormatCDFs(names, dists))
	return b.String()
}

// SenderSweepPoint is one Figure 19 x-position: visibility statistics at
// a given number of concurrent senders.
type SenderSweepPoint struct {
	Senders            int
	Mean, Median       float64
	P10, P25, P75, P90 float64
	FlowsMeasured      int
}

// HeaderTrailerVsSenders reproduces Figure 19: CMAP header-or-trailer
// reception fraction at receivers as the number of concurrent saturated
// flows grows from 2 to 7.
func HeaderTrailerVsSenders(tb *topo.Testbed, opt Options) []SenderSweepPoint {
	tb = tb.Shared()
	rng := sim.NewRNG(opt.Seed ^ 0xf19)
	links := tb.PotentialLinks()
	// Sample every sweep position's flow sets serially (rng order is part
	// of the experiment), then run all (k, run) trials on the pool.
	var trials []trial
	for k := 2; k <= 7; k++ {
		for run := 0; run < opt.APRuns; run++ {
			flows := pickDisjointFlows(rng, links, k)
			if len(flows) < k {
				continue
			}
			trials = append(trials, trial{tb, flows, CMAP, &opt, opt.Seed + uint64(k*100+run)*131})
		}
	}
	rs, _ := runTrials(opt.pool(), trials, nil, nil)
	// A trial at k senders runs exactly k flows.
	var dists [8]stats.Dist
	for t, tr := range trials {
		for _, fr := range rs[t] {
			if fr.VpktsSent > 0 {
				dists[len(tr.flows)].Add(fr.HdrOrTrailFrac())
			}
		}
	}
	var out []SenderSweepPoint
	for k := 2; k <= 7; k++ {
		d := &dists[k]
		out = append(out, SenderSweepPoint{
			Senders: k, Mean: d.Mean(), Median: d.Median(),
			P10: d.Percentile(10), P25: d.Percentile(25),
			P75: d.Percentile(75), P90: d.Percentile(90),
			FlowsMeasured: d.N(),
		})
	}
	return out
}

// pickDisjointFlows samples k node-disjoint potential links; with no
// link to sample it draws nothing.
func pickDisjointFlows(rng *sim.RNG, links []topo.Link, k int) []topo.Link {
	used := map[int]bool{}
	var flows []topo.Link
	for attempts := 0; attempts < 20000 && len(flows) < k && len(links) > 0; attempts++ {
		l := links[rng.Intn(len(links))]
		if used[l.Src] || used[l.Dst] {
			continue
		}
		used[l.Src], used[l.Dst] = true, true
		flows = append(flows, l)
	}
	return flows
}

// RateSeries is one Figure 20 bit-rate arm pair.
type RateSeries struct {
	Rate phy.RateID
	Ex   *PairExperiment
}

// VariableBitRates reproduces Figure 20: the exposed-terminal experiment
// at the 6, 12 and 18 Mb/s rates under CS-on and CMAP. Control traffic
// stays at 6 Mb/s, as in §5.8. The rates are the points of one sweep
// over the same pairs and seeds.
func VariableBitRates(tb *topo.Testbed, opt Options) []RateSeries {
	pairs := tb.ExposedPairs(sim.NewRNG(opt.Seed^0xf20), opt.Pairs)
	rates := []phy.RateID{phy.Rate6Mbps, phy.Rate12Mbps, phy.Rate18Mbps}
	points := make([]Options, len(rates))
	for k, rate := range rates {
		points[k] = opt
		points[k].Rate = rate
	}
	exs, _ := sweepPairs(tb, pairs, opt.armsOr([]Protocol{CSMAOn, CMAP}), points, nil, nil)
	out := make([]RateSeries, len(rates))
	for k, rate := range rates {
		exs[k].Name = fmt.Sprintf("Figure 20: exposed terminals @ %g Mb/s", phy.RateByID(rate).Mbps)
		out[k] = RateSeries{Rate: rate, Ex: exs[k]}
	}
	return out
}

// MeshResult holds the §5.7 numbers: per-topology aggregate leaf
// throughput for CMAP and the status quo.
type MeshResult struct {
	CMAP, CSMA *stats.Dist
}

// Gain returns mean(CMAP)/mean(CSMA) (the paper reports +52%).
func (m *MeshResult) Gain() float64 {
	if m.CSMA.Mean() == 0 {
		return 0
	}
	return m.CMAP.Mean() / m.CSMA.Mean()
}

// Mesh reproduces §5.7: two-hop content dissemination in batches, as the
// paper describes — "the source S first broadcasts a batch of packets to
// its one-hop neighbors A1, A2, A3; the Ais then transmit the packets to
// the corresponding Bis." A controller alternates the phases: when the
// source drains, relays forward what they received (concurrently — this
// is where CMAP finds exposed-terminal opportunities); when all relays
// drain, the source broadcasts the next batch. A leaf's throughput is
// the minimum of its two hop rates; a run's score is the sum over leaves.
// The batch workload runs on a static layout: it ignores opt.Mobility
// (and opt.Traffic).
func Mesh(tb *topo.Testbed, opt Options) *MeshResult {
	tb = tb.Shared()
	rng := sim.NewRNG(opt.Seed ^ 0xf57)
	meshes := tb.MeshTopologies(rng, opt.Meshes, 3)
	res := &MeshResult{CMAP: &stats.Dist{}, CSMA: &stats.Dist{}}
	cmapArm, csmaArm := mac.MustLookup(string(CMAP)), mac.MustLookup(string(CSMAOn))
	// Trials interleave (mesh, protocol): even indices CMAP, odd CSMA.
	scores := runner.Map(opt.pool(), 2*len(meshes), func(t int) float64 {
		msh := meshes[t/2]
		seed := opt.Seed + uint64(t/2)*2221
		if t%2 == 0 {
			return runMesh(cmapArm, tb, msh, opt, seed)
		}
		return runMesh(csmaArm, tb, msh, opt, seed+1)
	})
	for i := range meshes {
		res.CMAP.Add(scores[2*i])
		res.CSMA.Add(scores[2*i+1])
	}
	return res
}

// meshBatch is the dissemination batch size in data packets.
const meshBatch = 320

// runMesh runs one mesh topology under arm and returns the summed leaf
// throughput. Stations are built through the registry on stream labels
// 100 (source), 200+i (relays) and 300+i (leaves); the arms differ only
// in how the source issues a batch — CMAP-family stations broadcast to
// the relays as §3.6 targets, everything else to the 802.11 broadcast
// address.
func runMesh(arm mac.Arm, tb *topo.Testbed, msh topo.Mesh, opt Options, seed uint64) float64 {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := tb.Build(sched, rng.Stream(1))
	mopt := mac.Options{Rate: opt.Rate}

	src := arm.New(msh.Source, m, rng.Stream(100), mopt)
	k := len(msh.Relays)
	relays := make([]mac.Node, k)
	// Per-hop goodput, counted by delivery source inside the window.
	hop1 := make([]stats.Meter, k)
	hop2 := make([]stats.Meter, k)
	pending := make([]int, k)
	for i, relay := range msh.Relays {
		relays[i] = arm.New(relay, m, rng.Stream(uint64(200+i)), mopt)
		leaf := arm.New(msh.Leaves[i], m, rng.Stream(uint64(300+i)), mopt)
		hop1[i] = stats.Meter{Start: opt.Warmup, End: opt.Duration}
		hop2[i] = stats.Meter{Start: opt.Warmup, End: opt.Duration}
		relays[i].SetOnDeliver(func(from int, _ uint32, now sim.Time) {
			if from != msh.Source {
				return
			}
			hop1[i].Record(now, mac.DefaultPayload)
			pending[i]++
		})
		leaf.SetOnDeliver(func(from int, _ uint32, now sim.Time) {
			if from == relay {
				hop2[i].Record(now, mac.DefaultPayload)
			}
		})
	}
	batch := func() { src.Enqueue(csma.BroadcastDst, meshBatch) }
	if b, ok := src.(mac.Broadcaster); ok {
		b.SetBroadcast(msh.Relays, false, 0)
		batch = func() { b.EnqueueBroadcast(meshBatch) }
	}
	batch()
	sched.PostAfter(meshTick, &meshPhase{sched: sched, src: src, relays: relays, leaves: msh.Leaves, pending: pending, batch: batch, srcPhase: true}, nil)
	sched.Run(opt.Duration)
	var agg float64
	for i := range msh.Relays {
		agg += math.Min(hop1[i].Mbps(), hop2[i].Mbps())
	}
	return agg
}

// meshTick is how often runMesh's phase controller looks at the stations.
const meshTick = 20 * sim.Millisecond

// meshPhase is runMesh's phase controller, an event that re-posts itself
// every meshTick: once the source has drained its batch, each relay
// forwards what it received (pending) to its leaf; once every relay has
// drained too, the source issues the next batch.
type meshPhase struct {
	sched    *sim.Scheduler
	src      mac.Node
	relays   []mac.Node
	leaves   []int
	pending  []int
	batch    func()
	srcPhase bool
}

func (p *meshPhase) HandleEvent(any) {
	switch {
	case p.srcPhase && p.src.Idle():
		p.srcPhase = false
		for i, r := range p.relays {
			if p.pending[i] > 0 {
				r.Enqueue(p.leaves[i], p.pending[i])
				p.pending[i] = 0
			}
		}
	case !p.srcPhase && !slices.ContainsFunc(p.relays, func(r mac.Node) bool { return !r.Idle() }):
		p.srcPhase = true
		p.batch()
	}
	p.sched.PostAfter(meshTick, p, nil)
}
