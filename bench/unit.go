package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Isolated unit costs: each layer driven alone through its exported
// functions with stub neighbours, so a unit cost moves only when that
// layer's code does. They are sized by iteration count, not by time.

// nopHandler is a MAC that ignores its radio.
type nopHandler struct{}

func (nopHandler) OnFrame(frame.Frame, phy.RxInfo) {}
func (nopHandler) OnCorrupt(phy.RxInfo)            {}
func (nopHandler) OnTxDone(frame.Frame)            {}
func (nopHandler) OnCarrier(bool)                  {}

// nopEvent is an agenda target that does nothing.
type nopEvent struct{}

func (nopEvent) HandleEvent(any) {}

// holdEvent re-posts itself a pseudo-random delay ahead each time it
// fires: the classic hold model of a steady-state agenda.
type holdEvent struct {
	sched *sim.Scheduler
	state uint64
	left  int
}

func (h *holdEvent) HandleEvent(any) {
	if h.left == 0 {
		return
	}
	h.left--
	h.state = h.state*6364136223846793005 + 1442695040888963407
	h.sched.PostAfter(sim.Time(1+h.state>>44), h, nil)
}

// stubMover is a medium that only remembers positions.
type stubMover struct {
	sched *sim.Scheduler
	pos   []geo.Point
}

func (m *stubMover) NodeCount() int              { return len(m.pos) }
func (m *stubMover) Position(i int) geo.Point    { return m.pos[i] }
func (m *stubMover) MoveNode(i int, p geo.Point) { m.pos[i] = p }
func (m *stubMover) Scheduler() *sim.Scheduler   { return m.sched }

// stubQueue is a transmit queue that is always empty.
type stubQueue struct{}

func (stubQueue) Enqueue(int, int) {}
func (stubQueue) Backlog(int) int  { return 0 }

// unboundedModel hides a model's range bound, which sends the medium
// down its exhaustive-pairing paths.
type unboundedModel struct{ radio.Model }

// unitCosts is the suite; size scales every iteration count (1 at
// benchmark size) and figs is the figure configuration to time Figure
// 12 under.
type unitCosts struct {
	size float64
	seed uint64
	figs experiments.Options
}

func (u unitCosts) iters(full int) int {
	return max(1, int(float64(full)*u.size))
}

// per returns nanoseconds per operation since t0.
func per(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(max(1, ops))
}

func ms(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// run measures every unit cost into r.counts, one operation each.
func (u unitCosts) run(r *rep, bare func() *medium.Medium) {
	v := r.counts
	rate := phy.RateByID(phy.Rate6Mbps)
	data := &frame.Data{Src: frame.AddrFromID(1), Dst: frame.AddrFromID(2), PktSeq: 7, VSeq: 3, Index: 1, PayloadLen: payloadBytes}

	r.op("unit sim.agenda", func() []string {
		const pending = 4096
		sched := sim.NewScheduler()
		h := &holdEvent{sched: sched, state: u.seed, left: u.iters(2_000_000)}
		for i := 0; i < pending; i++ {
			sched.Post(sim.Time(i), h, nil)
		}
		t0 := time.Now()
		sched.RunAll()
		v["sim.agenda_ns_per_event"] = per(t0, int(sched.Fired()))

		timers := make([]sim.Timer, pending)
		for i := range timers {
			sched.ResetAfter(&timers[i], sim.Time(1000+i), nopEvent{}, nil)
		}
		n := u.iters(2_000_000)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			tm := &timers[i%pending]
			tm.Stop()
			sched.ResetAfter(tm, sim.Time(1000+i%7919), nopEvent{}, nil)
		}
		v["sim.timer_rearm_ns"] = per(t0, n)
		return nil
	})

	r.op("unit medium.fanout", func() []string {
		m := bare()
		for i := 0; i < m.NodeCount(); i++ {
			m.Radio(i).SetHandler(nopHandler{})
		}
		var deliveries int
		n := u.iters(20_000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			src := i % m.NodeCount()
			deliveries += m.NeighborCount(src)
			m.Scheduler().Run(m.Radio(src).Transmit(data, rate))
		}
		if deliveries == 0 {
			return []string{"no node has a neighbour"}
		}
		v["medium.fanout_ns_per_delivery"] = per(t0, deliveries)
		return nil
	})

	r.op("unit phy.signal", func() []string {
		for _, overlap := range []int{1, 8} {
			sched := sim.NewScheduler()
			rd := phy.NewRadio(0, phy.DefaultParams(), sched, sim.NewRNG(u.seed), nil)
			rd.SetHandler(nopHandler{})
			txs := make([]phy.Transmission, overlap)
			var id uint64
			var now sim.Time
			tick := func() {
				now += sim.Microsecond
				sched.Run(now)
			}
			n := u.iters(1_000_000) / overlap
			t0 := time.Now()
			for i := 0; i < n; i++ {
				for k := range txs {
					id++
					txs[k] = phy.Transmission{TxID: id, From: k + 1, Frame: data, Rate: rate, Start: now, End: now + sim.Millisecond}
					// The first arrival is strong and locks; the rest
					// are interference it integrates over.
					power := radio.DBmToMW(-60)
					if k > 0 {
						power = radio.DBmToMW(-85)
					}
					rd.SignalStart(&txs[k], power)
					tick()
				}
				for k := range txs {
					rd.SignalEnd(&txs[k])
					tick()
				}
			}
			v[fmt.Sprintf("phy.ns_per_signal_m%d", overlap)] = per(t0, n*overlap)
		}
		return nil
	})

	r.op("unit mac.ns_per_frame", func() []string {
		var bad []string
		for _, name := range []string{"csma", "cmap", "rtscts"} {
			arm, err := mac.Lookup(name)
			if err != nil {
				return []string{err.Error()}
			}
			sched := sim.NewScheduler()
			rng := sim.NewRNG(u.seed)
			m := medium.New(sched, phy.DefaultParams(), radio.DefaultIndoor5GHz(u.seed), []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}, rng.Stream(1))
			tx := arm.New(0, m, rng.Stream(1000), mac.Options{Rate: phy.Rate6Mbps})
			arm.New(1, m, rng.Stream(1001), mac.Options{Rate: phy.Rate6Mbps})
			tx.SetSaturated(1)
			t0 := time.Now()
			sched.Run(sim.Time(u.iters(50_000)) * sim.Millisecond)
			if m.Transmissions == 0 {
				bad = append(bad, name+": a clean link carried no frame")
			}
			v["mac."+name+".ns_per_frame"] = per(t0, int(m.Transmissions))
		}
		return bad
	})

	r.op("unit medium.move", func() []string {
		scen := topo.UniformDisk(u.iters(1000)+20, 200, u.seed)
		jitter := func(m *medium.Medium, n int) {
			for i := 0; i < n; i++ {
				idx := i % m.NodeCount()
				p := m.Position(idx)
				d := 0.5 - float64(i%2) // ±0.5 m, so nodes oscillate in place
				m.MoveNode(idx, geo.Point{X: p.X + d, Y: p.Y + d})
			}
		}
		m := scen.Build(sim.NewScheduler(), sim.NewRNG(u.seed))
		if !m.GridBacked() {
			return []string{"the disk medium is not grid-backed"}
		}
		jitter(m, m.NodeCount()) // builds the lazy mover
		var a, b runtime.MemStats
		n := u.iters(20_000)
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		jitter(m, n)
		v["medium.move_grid_us"] = per(t0, n) / 1e3
		runtime.ReadMemStats(&b)
		v["medium.move_grid_alloc_kb"] = float64(b.TotalAlloc-a.TotalAlloc) / 1e3 / float64(n)

		n = u.iters(3)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			m.RebuildDeliveries()
		}
		v["medium.rebuild_ms"] = per(t0, n) / 1e6

		dense := medium.New(sim.NewScheduler(), scen.Params, unboundedModel{scen.Model}, scen.Pos, sim.NewRNG(u.seed))
		if dense.GridBacked() {
			return []string{"hiding the range bound did not select the dense path"}
		}
		n = u.iters(400)
		t0 = time.Now()
		jitter(dense, n)
		v["medium.move_dense_us"] = per(t0, n) / 1e3
		return nil
	})

	r.op("unit mobility.epoch", func() []string {
		scen := topo.UniformDisk(u.iters(1000)+20, 200, u.seed)
		sched := sim.NewScheduler()
		stub := &stubMover{sched: sched, pos: append([]geo.Point(nil), scen.Pos...)}
		mg := mobility.New(mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3}, scen.Bounds, stub, sim.NewRNG(u.seed), nil)
		mg.Start()
		epochs := u.iters(300)
		t0 := time.Now()
		sched.Run(sim.Time(epochs) * mobility.DefaultEpoch)
		if mg.Epochs == 0 {
			return []string{"the manager applied no epoch"}
		}
		v["mobility.ns_per_node_epoch"] = per(t0, int(mg.Epochs)*stub.NodeCount())
		return nil
	})

	r.op("unit traffic.arrival", func() []string {
		sched := sim.NewScheduler()
		src := traffic.NewSource(sched, sim.NewRNG(u.seed), traffic.PoissonAt(1e5), stubQueue{}, 1)
		src.Start()
		t0 := time.Now()
		sched.Run(sim.Time(u.iters(10_000)) * sim.Millisecond)
		if src.Stats().Offered == 0 {
			return []string{"the source offered no packet"}
		}
		v["traffic.ns_per_arrival"] = per(t0, int(src.Stats().Offered))
		return nil
	})

	r.op("unit runner+topo+analytic", func() []string {
		t0 := time.Now()
		tb := topo.NewTestbed(u.figs.Nodes, u.seed)
		v["topo.testbed_ms"] = ms(t0)

		opt := u.figs
		opt.Seed = u.seed
		var csMedian float64
		var speedups []float64 // one pair is a fifth of a second each way: too short to trust alone
		for pair := 0; pair < 3; pair++ {
			var wall [2]float64
			for i, workers := range []int{1, 2} {
				opt.Workers = workers
				t0 = time.Now()
				ex := experiments.ExposedTerminals(tb, opt)
				wall[i] = time.Since(t0).Seconds()
				csMedian = ex.Median(experiments.CSMAOn)
			}
			speedups = append(speedups, wall[0]/wall[1])
		}
		v["runner.speedup_2w"] = median(speedups)

		n := u.iters(500_000)
		t0 = time.Now()
		runner.Map(runner.Config{Workers: 2}, n, func(i int) int { return i })
		v["runner.dispatch_ns_per_task"] = per(t0, n)

		t0 = time.Now()
		pred, err := experiments.PredictFigure("exposed", tb, opt)
		v["analytic.predict_ms"] = ms(t0)
		if err != nil {
			return []string{err.Error()}
		}
		if !(csMedian > 0) {
			return []string{fmt.Sprintf("simulated Figure 12 carrier-sense median is %v", csMedian)}
		}
		v["analytic.gap_frac"] = math.Abs(pred.Median(experiments.CSMAOn)-csMedian) / csMedian
		return nil
	})

	r.op("unit checkpoint", func() []string {
		scen := topo.UniformDisk(u.iters(1000)+20, 50, u.seed)
		flows := pickFlows(scen.Build(sim.NewScheduler(), sim.NewRNG(u.seed)), scen.N()/10+2)
		tb := scen.Testbed()
		cfg := experiments.FlowSimConfig{Arm: experiments.CMAP, Flows: flows, Duration: 2 * sim.Second, Rate: phy.Rate6Mbps, Seed: u.seed}
		fs, err := experiments.NewFlowSim(tb, cfg)
		if err != nil {
			return []string{err.Error()}
		}
		fs.Run(sim.Second)
		var buf bytes.Buffer
		t0 := time.Now()
		if err := fs.Save(&buf); err != nil {
			return []string{err.Error()}
		}
		v["checkpoint.save_ms"] = ms(t0)
		v["checkpoint.bytes"] = float64(buf.Len())
		fresh, err := experiments.NewFlowSim(tb, cfg)
		if err != nil {
			return []string{err.Error()}
		}
		t0 = time.Now()
		if err := fresh.Resume(bytes.NewReader(buf.Bytes())); err != nil {
			return []string{err.Error()}
		}
		v["checkpoint.resume_ms"] = ms(t0)
		if fresh.Now() != fs.Now() {
			return []string{fmt.Sprintf("resumed clock %v, saved at %v", fresh.Now(), fs.Now())}
		}
		return nil
	})

	r.op("unit frame.codec", func() []string {
		n := u.iters(500_000)
		var wire []byte
		t0 := time.Now()
		for i := 0; i < n; i++ {
			wire = frame.Marshal(data)
		}
		v["frame.marshal_ns"] = per(t0, n)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := frame.Unmarshal(wire); err != nil {
				return []string{err.Error()}
			}
		}
		v["frame.unmarshal_ns"] = per(t0, n)
		return nil
	})
}
