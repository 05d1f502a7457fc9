package experiments

// The node-count scaling measurements live outside the _test files so
// cmapbench can run them and emit machine-readable results (-benchjson):
// the perf trajectory across PRs is part of the repository's contract,
// not just a local curiosity.

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ScaleDensity keeps the audible neighbourhood constant as n grows, the
// regime where sparse construction is O(n·k). 50 nodes/km² is a rural
// mesh: at 1000 nodes the disk spans ~5 km, several delivery ranges
// across, so the grid genuinely prunes.
const ScaleDensity = 50 // nodes per km²

// DenseDensity is the other regime: 1000 nodes/km² puts ~160 receivers
// on every delivery row, nine in ten of them below sensitivity, so
// medium fan-out and PHY signal bookkeeping dominate and the agenda is
// nearly idle. A fan-out or PHY change shows here and not at
// ScaleDensity.
const DenseDensity = 1000 // nodes per km²

// ScaleSizes is the node-count sweep shared by every scaling benchmark.
var ScaleSizes = []int{50, 200, 1000}

// MediumConstructSizes extends the construction sweep past the traffic
// sizes: construction is cheap enough to benchmark at node counts where
// a full traffic run would dominate the suite.
var MediumConstructSizes = []int{50, 200, 1000, 5000}

// ScaleFlows picks one saturated flow per stride nodes: each source
// sends to the receiver that hears it loudest. No O(n²) measurement
// pass is involved — the delivery lists already know the answer — and
// only the stride sources' rows are built: the medium builds a row when
// it is read.
func ScaleFlows(s *topo.Scenario, count int) []topo.Link {
	m := s.Build(sim.NewScheduler(), sim.NewRNG(1))
	flows := make([]topo.Link, 0, count)
	used := make([]bool, s.N())
	stride := max(1, s.N()/count)
	for src := 0; src < s.N() && len(flows) < count; src += stride {
		if used[src] {
			continue
		}
		best, bestG := -1, 0.0
		m.ForEachNeighbor(src, func(dst int, g float64) {
			if !used[dst] && g > bestG {
				best, bestG = dst, g
			}
		})
		if best == -1 {
			continue
		}
		used[src], used[best] = true, true
		flows = append(flows, topo.Link{Src: src, Dst: best})
	}
	return flows
}

// newScaleSim wires saturated 802.11 flows over the scenario through
// NewFlowSim, stopping just short of running them — so benchmarks can
// keep construction off the timer. The testbed is the scenario's bare
// layout: FlowSim never reads the link measurements, so the O(n²) pass
// of Scenario.Testbed is skipped. d bounds the goodput meters.
func newScaleSim(s *topo.Scenario, flows []topo.Link, d sim.Time, seed uint64) *FlowSim {
	tb := &topo.Testbed{N: s.N(), Bounds: s.Bounds, Pos: s.Pos, Params: s.Params, Model: s.Model}
	fs, err := NewFlowSim(tb, FlowSimConfig{
		Arm:      CSMAOn,
		Flows:    flows,
		Duration: d,
		Rate:     phy.Rate6Mbps,
		Seed:     seed,
	})
	if err != nil {
		panic(err) // csma is always registered and ScaleFlows picks valid flows
	}
	return fs
}

// RunScaleTraffic drives saturated 802.11 flows over a fresh build of
// the scenario for a short virtual window and returns the aggregate
// goodput, exercising the sparse Transmit fan-out end to end.
func RunScaleTraffic(s *topo.Scenario, flows []topo.Link, d sim.Time, seed uint64) float64 {
	fs := newScaleSim(s, flows, d, seed)
	fs.Run(d)
	return aggregate(fs.Results())
}

// SaturatedNetwork is a built scenario carrying saturated 802.11 flows,
// kept alive so steady-state traffic can be measured with construction
// excluded — the regime where per-frame allocation behaviour, not
// medium construction, dominates.
type SaturatedNetwork struct {
	Sim   *FlowSim
	Flows []topo.Link
}

// NewSaturatedNetwork builds an n-node uniform disk at density nodes
// per km², starts one saturated flow per ten nodes and advances past the
// initial contention transient. The fixture has no measurement window
// (its meters record nothing); read Sim.Transmissions instead.
func NewSaturatedNetwork(n int, density float64, seed uint64) *SaturatedNetwork {
	s := topo.UniformDisk(n, density, seed)
	flows := ScaleFlows(s, n/10+2)
	net := &SaturatedNetwork{Sim: newScaleSim(s, flows, 0, seed), Flows: flows}
	net.Advance(20 * sim.Millisecond) // warm past the cold-start transient
	return net
}

// Advance runs the network d further through virtual time.
func (sn *SaturatedNetwork) Advance(d sim.Time) {
	sn.Sim.Run(sn.Sim.Now() + d)
}

// ScaleBenchmark is one scaling benchmark runnable outside `go test`.
type ScaleBenchmark struct {
	Name string
	Run  func(b *testing.B)
}

// BenchMediumConstruct measures a full build of the sparse channel at
// size n, one constructRows per op.
func BenchMediumConstruct(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows := constructRows(s); len(rows) != n {
				b.Fatal("bad build")
			}
		}
	}
}

// constructRows builds every delivery row of the scenario through
// medium.BuildDeliveries, the eager builder behind topo.Testbed.Shared
// and RebuildDeliveries. Scenario.Build builds no row
// (medium.New leaves each to its first read), so timing it would time
// an empty shell.
func constructRows(s *topo.Scenario) [][]medium.Delivery {
	rows, _ := medium.BuildDeliveries(s.Params, s.Model, s.Pos, 0)
	return rows
}

// BenchScaleTraffic measures a fresh 20 ms saturated run at size n with
// construction kept OFF the timer (each iteration builds between
// StopTimer and StartTimer): the reported ns/op is per-window traffic
// cost, not construction cost in disguise. BENCH files from before PR 8
// recorded the construction-inclusive shape under the same name.
func BenchScaleTraffic(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	flows := ScaleFlows(s, n/10+2)
	return func(b *testing.B) {
		if len(flows) == 0 {
			b.Fatalf("no flows at n=%d", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := newScaleSim(s, flows, 20*sim.Millisecond, uint64(i)+1)
			b.StartTimer()
			fs.Run(20 * sim.Millisecond)
		}
	}
}

// BenchSaturatedSteadyState measures 20 ms virtual-time windows of
// saturated traffic on a persistent n-node network at the given density
// — construction excluded, the steady state the zero-allocation
// transmit path targets.
func BenchSaturatedSteadyState(n int, density float64) func(b *testing.B) {
	return func(b *testing.B) {
		net := NewSaturatedNetwork(n, density, 1)
		if len(net.Flows) == 0 {
			b.Fatalf("no flows at n=%d", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Advance(20 * sim.Millisecond)
		}
	}
}

// BenchIncrementalUpdate measures one MoveNode — a one-node batch —
// and nothing after it: re-bucket the moved node in the grid and mark
// the delivery rows stale. It evaluates no link, so the cost is flat in
// n; the rows the move leaves stale are priced by EpochRead.
func BenchIncrementalUpdate(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	return func(b *testing.B) {
		m := s.Build(sim.NewScheduler(), sim.NewRNG(1))
		if !m.GridBacked() {
			b.Fatal("scale scenario is not grid-backed — the incremental path under test is not engaged")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := i % n
			p := m.Position(idx)
			// Jitter ±0.5 m, alternating sign so the node oscillates in
			// place instead of drifting out of its neighbourhood.
			d := 0.5 - float64(i%2)
			m.MoveNode(idx, geo.Point{X: p.X + d, Y: p.Y + d})
		}
	}
}

// BenchEpochUpdate measures one full movement epoch — every node of a
// waypoint 3 m/s, DecorrM 10 m run advanced, shadow epochs bumped, and
// the whole batch handed to Medium.MoveNodes — and nothing after it.
// The batch re-buckets the moved nodes and marks the delivery rows
// stale without evaluating a link, so the cost is the manager's walk
// plus n grid moves; the rebuilds it defers are priced by EpochRead.
func BenchEpochUpdate(n int) func(b *testing.B) { return benchEpoch(n, 0) }

// BenchEpochRead measures one movement epoch as EpochUpdate does plus
// the first read of every fifth node's delivery row — about the share
// of rows a mobile run reads between two epochs. Each read rebuilds a
// stale row: one grid walk over the candidate set C (every node within
// the ±6σ range bound), a screen test per candidate and a model
// evaluation per survivor, so the cost is about n/5 · C screen tests.
func BenchEpochRead(n int) func(b *testing.B) { return benchEpoch(n, 5) }

// benchEpoch times one movement epoch on the n-node scale layout,
// followed, when every is positive, by a read of every every-th node's
// delivery row.
func benchEpoch(n, every int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	spec := mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10}
	return func(b *testing.B) {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(1)
		ch := mobility.NewChannel(s.Model, s.N())
		tb := &topo.Testbed{N: s.N(), Bounds: s.Bounds, Pos: s.Pos, Params: s.Params, Model: s.Model}
		m := tb.BuildWith(sched, rng.Stream(1), ch)
		if !m.GridBacked() {
			b.Fatal("scale scenario is not grid-backed — the incremental path under test is not engaged")
		}
		mg := mobility.New(spec, s.Bounds, m, rng.Stream(mobility.StreamLabel), ch)
		mg.Start()
		// The agenda holds nothing but the manager's epoch tick, so one
		// Step is one epoch; the first builds the lazy motion state.
		sched.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Step()
			for j := 0; every > 0 && j < n; j += every {
				m.NeighborCount(j)
			}
		}
	}
}

// BenchDeliveryRebuild prices the alternative the lazy rows replace: a
// from-scratch BuildDeliveries over the current positions, what an
// eager medium would pay on every movement epoch. Read against
// EpochRead at n=1000, the ratio is the speedup the mobility tier rides
// on.
func BenchDeliveryRebuild(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	return func(b *testing.B) {
		m := s.Build(sim.NewScheduler(), sim.NewRNG(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RebuildDeliveries()
		}
	}
}

// ChurnDensity is the mobile_churn workload's: 200 nodes/km² puts ~700
// nodes inside the ±6σ range bound of which ~37 are audible, the
// regime the shadowing screen is for.
const ChurnDensity = 200 // nodes per km²

// gridCandidates lists the (node, candidate) pairs the grid path would
// put to the model for the first nodes of the scenario, up to limit.
func gridCandidates(s *topo.Scenario, limit int) [][2]int {
	reach := s.Model.(radio.RangeBounder).MaxRange(s.Params.TxPowerDBm - s.Params.DeliveryFloorDBm)
	grid := geo.NewGrid(s.Pos, reach)
	var pairs [][2]int
	for a := 0; a < s.N() && len(pairs) < limit; a++ {
		grid.Near(a, reach, func(cell []int) {
			for _, b := range cell {
				if b != a && s.Pos[a].Dist(s.Pos[b]) <= reach {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		})
	}
	return pairs
}

// BenchModelLoss measures what one grid candidate costs when the model
// is evaluated in full — Loss, the unit the delivery lists paid per
// candidate before the shadowing screen and still pay per survivor.
func BenchModelLoss(n int, density float64) func(b *testing.B) {
	s := topo.UniformDisk(n, density, 1)
	return func(b *testing.B) {
		pairs := gridCandidates(s, 100000)
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sum += s.Model.Loss(p[0], s.Pos[p[0]], p[1], s.Pos[p[1]])
		}
		if sum == 0 {
			b.Fatal("no loss")
		}
	}
}

// BenchModelScreen measures what one grid candidate costs the
// shadowing screen, refused or not: read against ModelLoss at the same
// size, it is the unit saving the screened delivery lists rest on
// (~nine candidates in ten are refused at ChurnDensity).
func BenchModelScreen(n int, density float64) func(b *testing.B) {
	s := topo.UniformDisk(n, density, 1)
	return func(b *testing.B) {
		pairs := gridCandidates(s, 100000)
		scr := s.Model.(radio.Screener)
		tab := scr.Screen(s.Params.TxPowerDBm - s.Params.DeliveryFloorDBm)
		refused := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if scr.Inaudible(tab, p[0], s.Pos[p[0]], p[1], s.Pos[p[1]]) {
				refused++
			}
		}
		if refused == 0 && b.N > 100 {
			b.Fatal("the screen refused nothing")
		}
	}
}

// holdEvent re-posts itself a pseudo-random delay (up to ~1 ms, the
// span of a frame) ahead each time it fires: the classic hold model of a
// steady-state agenda.
type holdEvent struct {
	sched *sim.Scheduler
	state uint64
}

func (h *holdEvent) HandleEvent(any) {
	h.state = h.state*6364136223846793005 + 1442695040888963407
	h.sched.PostAfter(sim.Time(1+h.state>>44), h, nil)
}

// nopEvent is an agenda target that does nothing.
type nopEvent struct{}

func (nopEvent) HandleEvent(any) {}

// BenchAgendaHold measures one fire-and-repost cycle of the agenda with
// a constant number of events pending: 256 is the saturated n=1000
// network's depth, 4096 crowds every bucket of the ring.
func BenchAgendaHold(pending int) func(b *testing.B) {
	return func(b *testing.B) {
		sched := sim.NewScheduler()
		h := &holdEvent{sched: sched, state: 1}
		for i := 0; i < pending; i++ {
			sched.Post(sim.Time(i), h, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Step()
		}
	}
}

// BenchAgendaRearm measures Stop + ResetAfter on one of pending armed
// timers whose deadlines all fall within 8 µs — two or three buckets
// holding thousands of events each, so unlink and insert must not
// depend on how crowded a bucket is.
func BenchAgendaRearm(pending int) func(b *testing.B) {
	return func(b *testing.B) {
		sched := sim.NewScheduler()
		timers := make([]sim.Timer, pending)
		for i := range timers {
			sched.ResetAfter(&timers[i], sim.Time(1000+i), nopEvent{}, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm := &timers[i%pending]
			tm.Stop()
			sched.ResetAfter(tm, sim.Time(1000+i%7919), nopEvent{}, nil)
		}
	}
}

// BenchAgendaBurst measures the cold start of n saturated senders: n
// events posted at one instant, then drained. ns/op is the whole burst;
// it is the one shape whose cost grows with a bucket's population.
func BenchAgendaBurst(n int) func(b *testing.B) {
	return func(b *testing.B) {
		sched := sim.NewScheduler()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				sched.Post(sched.Now(), nopEvent{}, nil)
			}
			sched.RunAll()
		}
	}
}

// ScaleBenchmarks returns the scaling suite cmapbench -benchjson runs.
func ScaleBenchmarks() []ScaleBenchmark {
	var out []ScaleBenchmark
	for _, n := range MediumConstructSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("MediumConstruct/n=%d", n),
			Run:  BenchMediumConstruct(n),
		})
	}
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("ScaleTraffic/n=%d", n),
			Run:  BenchScaleTraffic(n),
		})
	}
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("SaturatedSteadyState/n=%d", n),
			Run:  BenchSaturatedSteadyState(n, ScaleDensity),
		})
	}
	out = append(out, ScaleBenchmark{
		Name: "SaturatedSteadyState/n=1000/dense",
		Run:  BenchSaturatedSteadyState(1000, DenseDensity),
	})
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("IncrementalUpdate/n=%d", n),
			Run:  BenchIncrementalUpdate(n),
		})
	}
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("EpochUpdate/n=%d", n),
			Run:  BenchEpochUpdate(n),
		})
	}
	out = append(out, ScaleBenchmark{Name: "EpochRead/n=1000", Run: BenchEpochRead(1000)})
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("DeliveryRebuild/n=%d", n),
			Run:  BenchDeliveryRebuild(n),
		})
	}
	out = append(out,
		ScaleBenchmark{Name: fmt.Sprintf("ModelLoss/n=1000@%d", ChurnDensity), Run: BenchModelLoss(1000, ChurnDensity)},
		ScaleBenchmark{Name: fmt.Sprintf("ModelScreen/n=1000@%d", ChurnDensity), Run: BenchModelScreen(1000, ChurnDensity)},
		ScaleBenchmark{Name: "AgendaHold/pending=256", Run: BenchAgendaHold(256)},
		ScaleBenchmark{Name: "AgendaHold/pending=4096", Run: BenchAgendaHold(4096)},
		ScaleBenchmark{Name: "AgendaRearm/pending=4096", Run: BenchAgendaRearm(4096)},
		ScaleBenchmark{Name: "AgendaBurst/n=10000", Run: BenchAgendaBurst(10000)},
	)
	return out
}
