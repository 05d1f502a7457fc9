package experiments

// The node-count scaling measurements live outside the _test files so
// cmapbench can run them and emit machine-readable results (-benchjson):
// the perf trajectory across PRs is part of the repository's contract,
// not just a local curiosity.

import (
	"fmt"
	"testing"

	"repro/internal/csma"
	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/mobility"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// ScaleDensity keeps the audible neighbourhood constant as n grows, the
// regime where sparse construction is O(n·k). 50 nodes/km² is a rural
// mesh: at 1000 nodes the disk spans ~5 km, several delivery ranges
// across, so the grid genuinely prunes.
const ScaleDensity = 50 // nodes per km²

// ScaleSizes is the node-count sweep shared by every scaling benchmark.
var ScaleSizes = []int{50, 200, 1000}

// MediumConstructSizes extends the construction sweep past the traffic
// sizes: construction is cheap enough to benchmark at node counts where
// a full traffic run would dominate the suite.
var MediumConstructSizes = []int{50, 200, 1000, 5000}

// ShardScaleSizes × ShardCounts is the sharded-engine scaling matrix.
// On a multi-core host the shards>1 columns show the wall-clock win;
// on one core they price the window-barrier overhead instead.
var (
	ShardScaleSizes = []int{1000, 5000, 10000}
	ShardCounts     = []int{1, 2, 4, 8}
)

// NeighborLister is the audibility surface the flow picker needs: who
// hears node i, and how loudly. *medium.Medium and *shard.Engine both
// satisfy it over the same delivery lists.
type NeighborLister interface {
	ForEachNeighbor(i int, fn func(dst int, gainMW float64))
}

// deliveryLists adapts raw delivery lists to NeighborLister, so flows
// can be picked before the engine that will use the lists exists.
type deliveryLists [][]medium.Delivery

func (d deliveryLists) ForEachNeighbor(i int, fn func(dst int, gainMW float64)) {
	for _, e := range d[i] {
		fn(e.Dst, e.GainMW)
	}
}

// ScaleFlows picks one saturated flow per stride nodes: each source
// sends to the receiver that hears it loudest. No O(n²) measurement
// pass is involved — the delivery lists already know the answer.
func ScaleFlows(s *topo.Scenario, m NeighborLister, count int) []topo.Link {
	flows := make([]topo.Link, 0, count)
	used := map[int]bool{}
	stride := s.N() / count
	if stride < 1 {
		stride = 1
	}
	for src := 0; src < s.N() && len(flows) < count; src += stride {
		best, bestG := -1, 0.0
		m.ForEachNeighbor(src, func(dst int, gainMW float64) {
			if !used[dst] && gainMW > bestG {
				best, bestG = dst, gainMW
			}
		})
		if best == -1 || used[src] {
			continue
		}
		used[src], used[best] = true, true
		flows = append(flows, topo.Link{Src: src, Dst: best})
	}
	return flows
}

// buildScaleRun constructs the scheduler, medium, and saturated csma
// wiring of one scale-traffic run, stopping just short of running it —
// the split exists so benchmarks can keep construction off the timer.
func buildScaleRun(s *topo.Scenario, flows []topo.Link, d sim.Time, seed uint64) (*sim.Scheduler, []*stats.Meter) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := s.Build(sched, rng.Stream(1))
	cfg := csma.DefaultConfig()
	meters := make([]*stats.Meter, len(flows))
	for i, f := range flows {
		tx := csma.New(f.Src, cfg, m, rng.Stream(uint64(1000+f.Src)))
		rx := csma.New(f.Dst, cfg, m, rng.Stream(uint64(1000+f.Dst)))
		meters[i] = &stats.Meter{Start: 0, End: d}
		rx.Meter = meters[i]
		tx.SetSaturated(f.Dst)
	}
	return sched, meters
}

// RunScaleTraffic drives saturated 802.11 flows over a fresh build of
// the scenario for a short virtual window and returns the aggregate
// goodput, exercising the sparse Transmit fan-out end to end.
func RunScaleTraffic(s *topo.Scenario, flows []topo.Link, d sim.Time, seed uint64) float64 {
	sched, meters := buildScaleRun(s, flows, d, seed)
	sched.Run(d)
	var agg float64
	for _, mt := range meters {
		agg += mt.Mbps()
	}
	return agg
}

// SaturatedNetwork is a built scenario carrying saturated 802.11 flows,
// kept alive so steady-state traffic can be measured with construction
// excluded — the regime where per-frame allocation behaviour, not
// medium construction, dominates.
type SaturatedNetwork struct {
	Sched  *sim.Scheduler
	Medium *medium.Medium
	Flows  []topo.Link
}

// NewSaturatedNetwork builds an n-node uniform disk at ScaleDensity,
// starts one saturated flow per ten nodes, and advances past the
// initial contention transient.
func NewSaturatedNetwork(n int, seed uint64) *SaturatedNetwork {
	s := topo.UniformDisk(n, ScaleDensity, seed)
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := s.Build(sched, rng.Stream(1))
	flows := ScaleFlows(s, m, n/10+2)
	cfg := csma.DefaultConfig()
	for _, f := range flows {
		tx := csma.New(f.Src, cfg, m, rng.Stream(uint64(1000+f.Src)))
		csma.New(f.Dst, cfg, m, rng.Stream(uint64(1000+f.Dst)))
		tx.SetSaturated(f.Dst)
	}
	net := &SaturatedNetwork{Sched: sched, Medium: m, Flows: flows}
	net.Advance(20 * sim.Millisecond) // warm past the cold-start transient
	return net
}

// Advance runs the network d further through virtual time.
func (sn *SaturatedNetwork) Advance(d sim.Time) {
	sn.Sched.Run(sn.Sched.Now() + d)
}

// ShardedSaturatedNetwork is the sharded analogue of SaturatedNetwork:
// the same disk, the same flow-picking rule, the same saturated csma
// wiring — but the event loop partitioned across shards. The delivery
// lists are built once and shared between the flow picker and the
// engine.
type ShardedSaturatedNetwork struct {
	Engine *shard.Engine
	Flows  []topo.Link
}

// NewShardedSaturatedNetwork builds an n-node uniform disk at
// ScaleDensity carrying one saturated flow per ten nodes on a
// shards-way engine, warmed past the cold-start transient.
func NewShardedSaturatedNetwork(n, shards int, seed uint64) *ShardedSaturatedNetwork {
	s := topo.UniformDisk(n, ScaleDensity, seed)
	rng := sim.NewRNG(seed)
	engStream := rng.Stream(1) // the stream s.Build would hand the medium
	lists, _ := medium.BuildDeliveries(s.Params, s.Model, s.Pos, 0)
	flows := ScaleFlows(s, deliveryLists(lists), n/10+2)
	pairs := make([][2]int, len(flows))
	for i, f := range flows {
		pairs[i] = [2]int{f.Src, f.Dst}
	}
	eng := shard.NewEngine(s.Params, s.Model, s.Pos, engStream, shard.Config{
		Shards:     shards,
		Flows:      pairs,
		Deliveries: lists,
	})
	cfg := csma.DefaultConfig()
	for _, f := range flows {
		tx := csma.New(f.Src, cfg, eng.Network(f.Src), rng.Stream(uint64(1000+f.Src)))
		csma.New(f.Dst, cfg, eng.Network(f.Dst), rng.Stream(uint64(1000+f.Dst)))
		tx.SetSaturated(f.Dst)
	}
	net := &ShardedSaturatedNetwork{Engine: eng, Flows: flows}
	net.Advance(20 * sim.Millisecond) // warm past the cold-start transient
	return net
}

// Advance runs the sharded network d further through virtual time.
func (sn *ShardedSaturatedNetwork) Advance(d sim.Time) {
	sn.Engine.Run(sn.Engine.Now() + d)
}

// ScaleBenchmark is one scaling benchmark runnable outside `go test`.
type ScaleBenchmark struct {
	Name string
	Run  func(b *testing.B)
}

// BenchMediumConstruct measures sparse channel construction at size n.
func BenchMediumConstruct(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := s.Build(sim.NewScheduler(), sim.NewRNG(uint64(i)+1))
			if m.NodeCount() != n {
				b.Fatal("bad build")
			}
		}
	}
}

// BenchScaleTraffic measures a fresh 20 ms saturated run at size n with
// construction kept OFF the timer (each iteration builds between
// StopTimer and StartTimer): the reported ns/op is per-window traffic
// cost, not construction cost in disguise. BENCH files from before PR 8
// recorded the construction-inclusive shape under the same name.
func BenchScaleTraffic(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	m := s.Build(sim.NewScheduler(), sim.NewRNG(1))
	flows := ScaleFlows(s, m, n/10+2)
	return func(b *testing.B) {
		if len(flows) == 0 {
			b.Fatalf("no flows at n=%d", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sched, _ := buildScaleRun(s, flows, 20*sim.Millisecond, uint64(i)+1)
			b.StartTimer()
			sched.Run(20 * sim.Millisecond)
		}
	}
}

// BenchSaturatedSteadyState measures 20 ms virtual-time windows of
// saturated traffic on a persistent n-node network — construction
// excluded, the steady state the zero-allocation transmit path targets.
func BenchSaturatedSteadyState(n int) func(b *testing.B) {
	return func(b *testing.B) {
		net := NewSaturatedNetwork(n, 1)
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

// BenchShardedSteadyState measures 20 ms virtual-time windows of
// saturated traffic on a persistent n-node sharded engine. shards=1 is
// the serial engine through the same fixture, so the shards>1 rows read
// directly as parallel speedup (or, on one core, barrier overhead).
func BenchShardedSteadyState(n, shards int) func(b *testing.B) {
	return func(b *testing.B) {
		net := NewShardedSaturatedNetwork(n, shards, 1)
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
// through the incremental patch path: re-bucket the moved node in the
// grid, rebuild its own delivery list from the candidate set, and patch
// every affected neighbour list copy-on-write. The cost tracks the
// grid candidate set C (every node within the ±6σ range bound, one
// model evaluation each), not the much smaller audible neighbourhood;
// at fixed density C stops growing once the layout outgrows the bound.
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
// the whole batch pushed through Medium.MoveNodes — the unit of medium
// update a mobile simulation actually pays per 100 ms of virtual time.
// Each unordered candidate pair is evaluated once, so the cost is
// ≤ n·C/2 model evaluations against the 2·n·C of n separate moves.
func BenchEpochUpdate(n int) func(b *testing.B) {
	s := topo.UniformDisk(n, ScaleDensity, 1)
	spec := mobility.Spec{Kind: mobility.Waypoint, SpeedMps: 3, DecorrM: 10}
	return func(b *testing.B) {
		sched := sim.NewScheduler()
		rng := sim.NewRNG(1)
		ch := mobility.NewChannel(s.Model, s.N())
		m := medium.New(sched, s.Params, ch, s.Pos, rng.Stream(1))
		if !m.GridBacked() {
			b.Fatal("scale scenario is not grid-backed — the incremental path under test is not engaged")
		}
		mg := mobility.New(spec, s.Bounds, m, rng.Stream(mobility.StreamLabel), ch)
		mg.Start()
		// The agenda holds nothing but the manager's epoch tick, so one
		// Step is one epoch; the first builds the lazy patch state.
		sched.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Step()
		}
	}
}

// BenchDeliveryRebuild prices the alternative the incremental path
// replaces: a from-scratch BuildDeliveries over the current positions,
// what a non-incremental medium would pay on every movement epoch. Read
// against IncrementalUpdate at the same n, the ratio is the speedup the
// mobility tier rides on.
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
			Run:  BenchSaturatedSteadyState(n),
		})
	}
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
	for _, n := range ScaleSizes {
		out = append(out, ScaleBenchmark{
			Name: fmt.Sprintf("DeliveryRebuild/n=%d", n),
			Run:  BenchDeliveryRebuild(n),
		})
	}
	for _, n := range ShardScaleSizes {
		for _, k := range ShardCounts {
			out = append(out, ScaleBenchmark{
				Name: fmt.Sprintf("ShardedSteadyState/n=%d/shards=%d", n, k),
				Run:  BenchShardedSteadyState(n, k),
			})
		}
	}
	return out
}
