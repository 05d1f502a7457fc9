package cmap

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with -benchtime=1x: each iteration is one full
// experiment at a reduced scale) and reports the figure's headline
// numbers as custom metrics. cmd/cmapbench runs the same experiments at
// its mid scale (30 s runs) or at paper scale.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csma"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// benchOptions is the per-iteration experiment scale.
func benchOptions(seed uint64) experiments.Options {
	opt := experiments.Quick(seed)
	opt.Duration = 10 * sim.Second
	opt.Warmup = 5 * sim.Second
	opt.Pairs = 6
	opt.Triples = 30
	opt.APRuns = 2
	opt.Meshes = 4
	return opt
}

var benchTestbed = topo.NewTestbed(50, 1)

// BenchmarkTestbedCensus regenerates the §5.1 link census table.
func BenchmarkTestbedCensus(b *testing.B) {
	var c topo.Census
	for i := 0; i < b.N; i++ {
		tb := topo.NewTestbed(50, uint64(i+1))
		c = tb.Census()
	}
	b.ReportMetric(100*c.FracLow, "%PRR<0.1")
	b.ReportMetric(100*c.FracFull, "%PRR=1")
	b.ReportMetric(c.MeanDegree, "mean-degree")
}

// BenchmarkSingleLinkCalibration regenerates §4.2's single-link table
// (paper: CMAP 5.04 vs 802.11 5.07 Mb/s).
func BenchmarkSingleLinkCalibration(b *testing.B) {
	var cal experiments.Calibration
	for i := 0; i < b.N; i++ {
		cal = experiments.RunCalibration(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(cal.CMAPMbps, "cmap-Mbps")
	b.ReportMetric(cal.Dot11Mbps, "dot11-Mbps")
}

// BenchmarkFig12ExposedTerminals regenerates Figure 12 (paper: CMAP ≈2×
// the status quo; window 1 ≈1.5×).
func BenchmarkFig12ExposedTerminals(b *testing.B) {
	var ex *experiments.PairExperiment
	for i := 0; i < b.N; i++ {
		ex = experiments.ExposedTerminals(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(ex.Gain(experiments.CMAP, experiments.CSMAOn), "gain-x")
	b.ReportMetric(ex.Median(experiments.CMAP), "cmap-median-Mbps")
	b.ReportMetric(ex.Median(experiments.CSMAOn), "cs-median-Mbps")
}

// BenchmarkFig13InRangeSenders regenerates Figure 13.
func BenchmarkFig13InRangeSenders(b *testing.B) {
	var ex *experiments.PairExperiment
	for i := 0; i < b.N; i++ {
		ex = experiments.InRangeSenders(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(ex.Median(experiments.CMAP), "cmap-median-Mbps")
	b.ReportMetric(ex.Median(experiments.CSMAOn), "cs-median-Mbps")
	b.ReportMetric(ex.Dists[experiments.CMAP].Percentile(90), "cmap-p90-Mbps")
}

// BenchmarkFig14HiddenInterferers regenerates Figure 14 and §5.4's
// numbers (paper: 8% hidden, expected CMAP throughput 0.896).
func BenchmarkFig14HiddenInterferers(b *testing.B) {
	var res *experiments.HiddenInterfererResult
	for i := 0; i < b.N; i++ {
		res = experiments.HiddenInterferers(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(res.HiddenFrac, "hidden-frac")
	b.ReportMetric(res.ExpectedCMAP, "expected-cmap")
}

// BenchmarkFig15HiddenTerminals regenerates Figure 15 (paper: CMAP
// comparable to the status quo).
func BenchmarkFig15HiddenTerminals(b *testing.B) {
	var ex *experiments.PairExperiment
	for i := 0; i < b.N; i++ {
		ex = experiments.HiddenTerminals(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(ex.Dists[experiments.CMAP].Mean(), "cmap-mean-Mbps")
	b.ReportMetric(ex.Dists[experiments.CSMAOn].Mean(), "cs-mean-Mbps")
}

// BenchmarkFig16HeaderTrailer regenerates Figure 16's salvage CDFs.
func BenchmarkFig16HeaderTrailer(b *testing.B) {
	var h *experiments.HeaderTrailerCDFs
	for i := 0; i < b.N; i++ {
		opt := benchOptions(uint64(i + 1))
		inr := experiments.InRangeSenders(benchTestbed, opt)
		hid := experiments.HiddenTerminals(benchTestbed, opt)
		h = experiments.HeaderTrailer(inr, hid)
	}
	b.ReportMetric(h.InRangeEither.Median(), "inrange-hdrtrl-median")
	b.ReportMetric(h.HiddenEither.Median(), "hidden-hdrtrl-median")
	b.ReportMetric(h.HiddenHeader.Median(), "hidden-hdr-median")
}

// BenchmarkFig17AccessPoint regenerates Figure 17 (paper: +21%…+47%).
func BenchmarkFig17AccessPoint(b *testing.B) {
	var res *experiments.APResult
	for i := 0; i < b.N; i++ {
		res = experiments.AccessPoint(benchTestbed, benchOptions(uint64(i+1)))
	}
	var gain float64
	var n int
	for _, k := range res.Ns {
		if cs := res.Mean[experiments.CSMAOn][k]; cs > 0 {
			gain += res.Mean[experiments.CMAP][k] / cs
			n++
		}
	}
	b.ReportMetric(gain/float64(n), "mean-gain-x")
}

// BenchmarkFig18PerSender regenerates Figure 18 (paper: median 1.8×).
func BenchmarkFig18PerSender(b *testing.B) {
	var res *experiments.APResult
	for i := 0; i < b.N; i++ {
		res = experiments.AccessPoint(benchTestbed, benchOptions(uint64(i+1)))
	}
	cs := res.PerSender[experiments.CSMAOn].Median()
	if cs > 0 {
		b.ReportMetric(res.PerSender[experiments.CMAP].Median()/cs, "median-gain-x")
	}
}

// BenchmarkFig19HeaderTrailerSweep regenerates Figure 19.
func BenchmarkFig19HeaderTrailerSweep(b *testing.B) {
	var pts []experiments.SenderSweepPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.HeaderTrailerVsSenders(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(pts[0].Median, "k2-median")
	b.ReportMetric(pts[len(pts)-1].Median, "k7-median")
	b.ReportMetric(pts[len(pts)-1].P10, "k7-p10")
}

// BenchmarkFig20VariableBitRates regenerates Figure 20 (paper: gains
// persist at 12 and 18 Mb/s).
func BenchmarkFig20VariableBitRates(b *testing.B) {
	var series []experiments.RateSeries
	for i := 0; i < b.N; i++ {
		opt := benchOptions(uint64(i + 1))
		opt.Pairs = 4
		series = experiments.VariableBitRates(benchTestbed, opt)
	}
	for _, rs := range series {
		name := map[phy.RateID]string{
			phy.Rate6Mbps: "gain6-x", phy.Rate12Mbps: "gain12-x", phy.Rate18Mbps: "gain18-x",
		}[rs.Rate]
		b.ReportMetric(rs.Ex.Gain(experiments.CMAP, experiments.CSMAOn), name)
	}
}

// BenchmarkMeshTopology regenerates §5.7 (paper: +52%).
func BenchmarkMeshTopology(b *testing.B) {
	var res *experiments.MeshResult
	for i := 0; i < b.N; i++ {
		res = experiments.Mesh(benchTestbed, benchOptions(uint64(i+1)))
	}
	b.ReportMetric(res.Gain(), "gain-x")
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

// ackLossTopology shadows the sender's ACKs with an interferer that the
// receiver cannot hear — the exposed-sender pathology the windowed
// protocol is designed for.
var ackLossTopology = [][]float64{
	{0, 68, 72, 300},
	{68, 0, 300, 300},
	{72, 300, 0, 68},
	{300, 300, 68, 0},
}

// runAckLossFlow measures one CMAP flow under ACK loss with cfg.
func runAckLossFlow(cfg core.Config, seed uint64) float64 {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: ackLossTopology},
		make([]geo.Point, 4), rng.Stream(1))
	s := core.New(0, cfg, m, rng.Stream(10))
	r := core.New(1, cfg, m, rng.Stream(11))
	i := core.New(2, cfg, m, rng.Stream(12))
	core.New(3, cfg, m, rng.Stream(13))
	dur := 10 * sim.Second
	r.Meter = &stats.Meter{Start: dur / 3, End: dur}
	s.SetSaturated(1)
	i.SetSaturated(3)
	sched.Run(dur)
	return r.Meter.Mbps()
}

// BenchmarkAblationWindowSize sweeps Nwindow (the Figure 12 win=1
// comparison generalised): goodput under ACK loss per window size.
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 16} {
		out := 0.0
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig()
			cfg.Nwindow = w
			out = runAckLossFlow(cfg, uint64(i+1))
		}
		switch w {
		case 1:
			b.ReportMetric(out, "win1-Mbps")
		case 8:
			b.ReportMetric(out, "win8-Mbps")
		case 16:
			b.ReportMetric(out, "win16-Mbps")
		}
	}
}

// BenchmarkAblationTrailers compares full virtual packets against
// header-only ones under interference (the Figure 16 design rationale:
// trailers salvage virtual-packet identification and trigger ACKs).
func BenchmarkAblationTrailers(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		with = runAckLossFlow(cfg, uint64(i+1))
		cfg.DisableTrailers = true
		without = runAckLossFlow(cfg, uint64(i+1))
	}
	b.ReportMetric(with, "with-trailers-Mbps")
	b.ReportMetric(without, "without-trailers-Mbps")
}

// conflictTopology is two flows whose cross links are strong: concurrent
// transmissions destroy each other, so deferring is the right answer and
// the interference threshold decides how eagerly conflicts are declared.
var conflictTopology = [][]float64{
	{0, 68, 72, 71},
	{68, 0, 70, 300},
	{72, 70, 0, 68},
	{71, 300, 68, 0},
}

// BenchmarkAblationLossThreshold sweeps l_interf (§3.1 argues 0.5 is the
// throughput-optimal threshold): aggregate goodput of a conflicting pair
// per threshold.
func BenchmarkAblationLossThreshold(b *testing.B) {
	results := map[float64]float64{}
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.25, 0.5, 0.75} {
			sched := sim.NewScheduler()
			rng := sim.NewRNG(uint64(i + 1))
			m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: conflictTopology},
				make([]geo.Point, 4), rng.Stream(1))
			cfg := core.DefaultConfig()
			cfg.LossInterf = th
			cfg.BroadcastPeriod = 250 * sim.Millisecond
			s1 := core.New(0, cfg, m, rng.Stream(10))
			r1 := core.New(1, cfg, m, rng.Stream(11))
			s2 := core.New(2, cfg, m, rng.Stream(12))
			r2 := core.New(3, cfg, m, rng.Stream(13))
			dur := 15 * sim.Second
			r1.Meter = &stats.Meter{Start: dur / 2, End: dur}
			r2.Meter = &stats.Meter{Start: dur / 2, End: dur}
			s1.SetSaturated(1)
			s2.SetSaturated(3)
			sched.Run(dur)
			results[th] = r1.Meter.Mbps() + r2.Meter.Mbps()
		}
	}
	b.ReportMetric(results[0.25], "linterf25-Mbps")
	b.ReportMetric(results[0.5], "linterf50-Mbps")
	b.ReportMetric(results[0.75], "linterf75-Mbps")
}

// BenchmarkAblationBackoff compares loss-based against 802.11-style
// (missing-ACK) contention-window growth under ACK loss (§3.4).
func BenchmarkAblationBackoff(b *testing.B) {
	var lossBased, ackBased float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		lossBased = runAckLossFlow(cfg, uint64(i+1))
		cfg.BackoffOnMissingAck = true
		ackBased = runAckLossFlow(cfg, uint64(i+1))
	}
	b.ReportMetric(lossBased, "loss-based-Mbps")
	b.ReportMetric(ackBased, "ack-based-Mbps")
}

// BenchmarkAblationNvpkt sweeps the virtual-packet batching factor that
// amortises the software MAC's latency (§4.1).
func BenchmarkAblationNvpkt(b *testing.B) {
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, nv := range []int{8, 16, 32, 64} {
			sched := sim.NewScheduler()
			rng := sim.NewRNG(uint64(i + 1))
			m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: [][]float64{
				{0, 70},
				{70, 0},
			}}, make([]geo.Point, 2), rng.Stream(1))
			cfg := core.DefaultConfig()
			cfg.Nvpkt = nv
			tx := core.New(0, cfg, m, rng.Stream(10))
			rx := core.New(1, cfg, m, rng.Stream(11))
			dur := 8 * sim.Second
			rx.Meter = &stats.Meter{Start: dur / 4, End: dur}
			tx.SetSaturated(1)
			sched.Run(dur)
			results[nv] = rx.Meter.Mbps()
		}
	}
	b.ReportMetric(results[8], "nvpkt8-Mbps")
	b.ReportMetric(results[32], "nvpkt32-Mbps")
	b.ReportMetric(results[64], "nvpkt64-Mbps")
}

// BenchmarkSimulatorEventRate measures raw simulator throughput: events
// per second of a saturated DCF pair (engine-level performance).
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(uint64(i + 1))
		m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: [][]float64{
			{0, 70},
			{70, 0},
		}}, make([]geo.Point, 2), rng.Stream(1))
		cfg := csma.DefaultConfig()
		tx := csma.New(0, cfg, m, rng.Stream(10))
		csma.New(1, cfg, m, rng.Stream(11))
		tx.SetSaturated(1)
		sched.Run(2 * sim.Second)
		b.ReportMetric(float64(sched.Fired()), "events/iter")
	}
}

// BenchmarkPerDestQueues measures the §3.2 per-destination-queue
// optimisation. A saturated interferer x destroys S→A (so S's conflict
// map learns to defer that flow) while S→B is clean. With per-destination
// queues, B's 100 packets finish almost immediately; emulating a single
// shared queue (B strictly behind A), B waits for A to trickle through
// x's gaps first.
func BenchmarkPerDestQueues(b *testing.B) {
	topology := [][]float64{
		// S(0) A(1) B(2) x(3) y(4)
		{0, 70, 72, 70, 300},
		{70, 0, 80, 70, 300},
		{72, 80, 0, 95, 300},
		{70, 70, 95, 0, 68},
		{300, 300, 300, 68, 0},
	}
	run := func(seed uint64, headOfLine bool) float64 {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(seed)
		m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: topology},
			make([]geo.Point, 5), rng.Stream(1))
		cfg := core.DefaultConfig()
		cfg.Nvpkt = 8
		cfg.MinInterfSamples = 8
		cfg.BroadcastPeriod = 250 * sim.Millisecond
		cfg.PerDestQueues = true
		s := core.New(0, cfg, m, rng.Stream(10))
		a := core.New(1, cfg, m, rng.Stream(11))
		bn := core.New(2, cfg, m, rng.Stream(12))
		x := core.New(3, cfg, m, rng.Stream(13))
		core.New(4, cfg, m, rng.Stream(14))
		x.SetSaturated(4)
		// Let the conflict map converge: S sends to A under x's
		// interference until A's interferer list reaches S.
		s.Enqueue(1, 100)
		sched.Run(8 * sim.Second)
		var bDone sim.Time
		bn.OnDeliver = func(_ int, seq uint32, now sim.Time) {
			if seq == 99 {
				bDone = now
			}
		}
		startAt := sched.Now()
		s.Enqueue(1, 100)
		if headOfLine {
			// Single-queue emulation: B strictly behind A.
			a.OnDeliver = func(_ int, seq uint32, _ sim.Time) {
				if seq == 199 {
					s.Enqueue(2, 100)
				}
			}
		} else {
			s.Enqueue(2, 100)
		}
		sched.Run(startAt + 120*sim.Second)
		if bDone == 0 {
			return 120
		}
		return (bDone - startAt).Seconds()
	}
	var multi, single float64
	for i := 0; i < b.N; i++ {
		multi = run(uint64(i+1), false)
		single = run(uint64(i+1), true)
	}
	b.ReportMetric(multi, "b-done-multi-s")
	b.ReportMetric(single, "b-done-headofline-s")
}
