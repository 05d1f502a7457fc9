package shard

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"

	_ "repro/internal/core"
	_ "repro/internal/csma"
)

// runOutcome is everything a run pins down: per-flow goodput plus the
// engine-internal counters that would expose any event-sequence drift.
type runOutcome struct {
	mbps    []float64
	packets []uint64
	txs     uint64
	decoded []uint64
	missed  []uint64
	// arrivals holds each source's counters under an arrival process.
	arrivals []traffic.Stats
}

const (
	testDuration = 300 * sim.Millisecond
	testWarmup   = 50 * sim.Millisecond
)

// wireFlows attaches one station per distinct endpoint and drives each
// flow as experiments.NewFlowSim does: saturated, or — when spec is an
// arrival process — through a traffic.Source on the sender's scheduler
// drawing rng.Stream(5000+i).
func wireFlows(flows []topo.Link, armName string, rng *sim.RNG, spec traffic.Spec,
	network func(id int) mac.Network, schedOf func(id int) *sim.Scheduler) ([]*stats.Meter, []*traffic.Source) {
	arm := mac.MustLookup(armName)
	meters := make([]*stats.Meter, len(flows))
	var sources []*traffic.Source
	nodes := map[int]mac.Node{}
	mk := func(id int) mac.Node {
		if n, ok := nodes[id]; ok {
			return n
		}
		n := arm.New(id, network(id), rng.Stream(uint64(1000+id)), mac.Options{Rate: phy.Rate6Mbps})
		nodes[id] = n
		return n
	}
	for i, f := range flows {
		tx, rx := mk(f.Src), mk(f.Dst)
		meters[i] = &stats.Meter{Start: testWarmup, End: testDuration}
		rx.SetMeter(meters[i])
		if spec.Kind == traffic.Saturated {
			tx.SetSaturated(f.Dst)
			continue
		}
		src := traffic.NewSource(schedOf(f.Src), rng.Stream(uint64(5000+i)), spec, tx, f.Dst)
		sources = append(sources, src)
		src.Start()
	}
	return meters, sources
}

// outcome gathers what a finished run pins down.
func outcome(txs uint64, meters []*stats.Meter, sources []*traffic.Source, radios int, radio func(i int) *phy.Radio) runOutcome {
	out := runOutcome{txs: txs}
	for _, mt := range meters {
		out.mbps = append(out.mbps, mt.Mbps())
		out.packets = append(out.packets, mt.Packets())
	}
	for _, src := range sources {
		out.arrivals = append(out.arrivals, src.Stats())
	}
	for i := 0; i < radios; i++ {
		st := radio(i).Stats()
		out.decoded = append(out.decoded, st.Decoded)
		out.missed = append(out.missed, st.Missed)
	}
	return out
}

// runSerial is the reference: the serial medium engine.
func runSerial(tb *topo.Testbed, flows []topo.Link, armName string, spec traffic.Spec, seed uint64) runOutcome {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := tb.Build(sched, rng.Stream(1))
	meters, sources := wireFlows(flows, armName, rng, spec,
		func(int) mac.Network { return m }, func(int) *sim.Scheduler { return sched })
	sched.Run(testDuration)
	return outcome(m.Transmissions, meters, sources, m.NodeCount(), m.Radio)
}

// runSharded is the same experiment through the sharded engine.
func runSharded(tb *topo.Testbed, flows []topo.Link, armName string, spec traffic.Spec, seed uint64, shards int) runOutcome {
	rng := sim.NewRNG(seed)
	pairs := make([][2]int, len(flows))
	for i, f := range flows {
		pairs[i] = [2]int{f.Src, f.Dst}
	}
	eng := NewEngine(tb.Params, tb.Model, tb.Pos, rng.Stream(1), Config{Shards: shards, Flows: pairs})
	meters, sources := wireFlows(flows, armName, rng, spec, eng.Network, eng.SchedulerOf)
	eng.Run(testDuration)
	return outcome(eng.Transmissions(), meters, sources, eng.NodeCount(), func(i int) *phy.Radio { return &eng.radios[i] })
}

// testFlows samples a few potential-link flows spread across the
// testbed so a multi-shard partition has both intra- and cross-border
// interference.
func testFlows(tb *topo.Testbed, seed uint64, count int) []topo.Link {
	rng := sim.NewRNG(seed)
	pairs := tb.InRangePairs(rng, count)
	var flows []topo.Link
	used := map[int]bool{}
	for _, p := range pairs {
		for _, l := range []topo.Link{p.A, p.B} {
			if used[l.Src] || used[l.Dst] {
				continue
			}
			used[l.Src], used[l.Dst] = true, true
			flows = append(flows, l)
		}
	}
	return flows
}

// TestShardOneBitIdenticalToSerial is the acceptance-criterion pin:
// with one shard the engine IS the serial engine — identical per-flow
// goodput, identical transmission count, identical per-radio decode and
// miss counters, for every registered arm family we ship, and identical
// arrival counters when Poisson traffic.Sources ride SchedulerOf(src)
// instead of saturated senders.
func TestShardOneBitIdenticalToSerial(t *testing.T) {
	tb := topo.NewTestbed(50, 11)
	flows := testFlows(tb, 23, 4)
	if len(flows) < 2 {
		t.Fatalf("only %d flows sampled", len(flows))
	}
	poisson := traffic.Spec{Kind: traffic.Poisson}.WithOfferedMbps(2.0, 1400)
	for _, in := range []struct {
		name, arm string
		spec      traffic.Spec
	}{
		{"csma", "csma", traffic.Saturate()},
		{"cmap", "cmap", traffic.Saturate()},
		{"rtscts", "rtscts", traffic.Saturate()},
		{"csma-poisson", "csma", poisson},
	} {
		t.Run(in.name, func(t *testing.T) {
			ref := runSerial(tb, flows, in.arm, in.spec, 0xfeed)
			got := runSharded(tb, flows, in.arm, in.spec, 0xfeed, 1)
			for i := range ref.arrivals {
				if got.arrivals[i] != ref.arrivals[i] {
					t.Fatalf("flow %d arrivals: sharded %+v, serial %+v", i, got.arrivals[i], ref.arrivals[i])
				}
				if ref.arrivals[i].Accepted == 0 {
					t.Fatalf("flow %d: the arrival process offered nothing — vacuous comparison", i)
				}
			}
			if got.txs != ref.txs {
				t.Fatalf("transmissions: sharded %d, serial %d", got.txs, ref.txs)
			}
			for i := range ref.mbps {
				if got.mbps[i] != ref.mbps[i] || got.packets[i] != ref.packets[i] {
					t.Fatalf("flow %d: sharded %.9f Mb/s (%d pkts), serial %.9f Mb/s (%d pkts)",
						i, got.mbps[i], got.packets[i], ref.mbps[i], ref.packets[i])
				}
			}
			for i := range ref.decoded {
				if got.decoded[i] != ref.decoded[i] || got.missed[i] != ref.missed[i] {
					t.Fatalf("radio %d: sharded decoded/missed %d/%d, serial %d/%d",
						i, got.decoded[i], got.missed[i], ref.decoded[i], ref.missed[i])
				}
			}
		})
	}
}

// TestShardDeterminism pins run-to-run determinism at fixed shard
// counts: the engine's goroutines synchronize only at barriers, so OS
// scheduling must not be able to change a single counter.
func TestShardDeterminism(t *testing.T) {
	tb := topo.NewTestbed(50, 5)
	flows := testFlows(tb, 31, 4)
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := runSharded(tb, flows, "csma", traffic.Saturate(), 0xd5, shards)
			b := runSharded(tb, flows, "csma", traffic.Saturate(), 0xd5, shards)
			if a.txs != b.txs {
				t.Fatalf("transmissions differ across runs: %d vs %d", a.txs, b.txs)
			}
			for i := range a.mbps {
				if a.mbps[i] != b.mbps[i] {
					t.Fatalf("flow %d goodput differs across runs: %v vs %v", i, a.mbps[i], b.mbps[i])
				}
			}
			for i := range a.decoded {
				if a.decoded[i] != b.decoded[i] || a.missed[i] != b.missed[i] {
					t.Fatalf("radio %d counters differ across runs", i)
				}
			}
		})
	}
}

// TestShardFigureLevelEquivalence bounds the deviation sharding may
// introduce: per-flow goodput at 2 and 4 shards must stay within 30%
// (or 0.25 Mb/s absolute, whichever is looser) of the serial engine,
// and the aggregate within 15%. The deviation source is the lookahead
// window W shifting cross-border interference phase; W is ~4% of one
// data frame's airtime, so a larger drift means a bug, not physics.
func TestShardFigureLevelEquivalence(t *testing.T) {
	tb := topo.NewTestbed(50, 11)
	flows := testFlows(tb, 23, 4)
	for _, armName := range []string{"csma", "cmap"} {
		ref := runSerial(tb, flows, armName, traffic.Saturate(), 0xfeed)
		var refAgg float64
		for _, v := range ref.mbps {
			refAgg += v
		}
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", armName, shards), func(t *testing.T) {
				got := runSharded(tb, flows, armName, traffic.Saturate(), 0xfeed, shards)
				var agg float64
				for i, v := range got.mbps {
					agg += v
					diff := v - ref.mbps[i]
					if diff < 0 {
						diff = -diff
					}
					if diff > 0.30*ref.mbps[i] && diff > 0.25 {
						t.Errorf("flow %d: sharded %.3f Mb/s vs serial %.3f Mb/s (Δ %.3f)",
							i, v, ref.mbps[i], diff)
					}
				}
				aggDiff := agg - refAgg
				if aggDiff < 0 {
					aggDiff = -aggDiff
				}
				if aggDiff > 0.15*refAgg {
					t.Errorf("aggregate: sharded %.3f Mb/s vs serial %.3f Mb/s", agg, refAgg)
				}
			})
		}
	}
}

// TestPartitionCoShardsFlows pins the flow-placement contract: every
// flow's endpoints share a shard, transitive endpoint groups collapse
// into one shard, and non-endpoint nodes keep their strip assignment.
func TestPartitionCoShardsFlows(t *testing.T) {
	tb := topo.NewTestbed(50, 3)
	// A chain 0-49, 49-25 forces three nodes into one group.
	flows := [][2]int{{0, 49}, {49, 25}, {10, 12}}
	assign := Partition(tb.Pos, flows, 4)
	if assign[0] != assign[49] || assign[49] != assign[25] {
		t.Fatalf("chained endpoints split: %d/%d/%d", assign[0], assign[49], assign[25])
	}
	if assign[10] != assign[12] {
		t.Fatalf("flow endpoints split: %d/%d", assign[10], assign[12])
	}
	for i, s := range assign {
		if s < 0 || s >= 4 {
			t.Fatalf("node %d in shard %d outside [0,4)", i, s)
		}
	}
	// Determinism: identical inputs, identical assignment.
	again := Partition(tb.Pos, flows, 4)
	for i := range assign {
		if assign[i] != again[i] {
			t.Fatalf("partition not deterministic at node %d", i)
		}
	}
}

// boom is an agenda event that panics when it fires.
type boom struct{}

func (boom) HandleEvent(any) { panic("boom from a shard event") }

// TestEnginePanicPropagation proves a panic on one shard goroutine
// aborts the whole run and resurfaces in Run with the original message
// — not a deadlock at the barrier, not a silent partial run.
func TestEnginePanicPropagation(t *testing.T) {
	tb := topo.NewTestbed(50, 3)
	rng := sim.NewRNG(1)
	eng := NewEngine(tb.Params, tb.Model, tb.Pos, rng.Stream(1), Config{Shards: 3})
	eng.SchedulerOf(0).PostAfter(1*sim.Millisecond, boom{}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not propagate the shard panic")
		}
		if !strings.Contains(fmt.Sprint(r), "boom from a shard event") {
			t.Fatalf("propagated panic lost the original message: %v", r)
		}
	}()
	eng.Run(10 * sim.Millisecond)
}

// TestEngineResumeMidWindow pins Run's resumability: stopping on and
// off window edges and resuming must yield the same outcome as one
// uninterrupted run.
func TestEngineResumeMidWindow(t *testing.T) {
	tb := topo.NewTestbed(50, 5)
	flows := testFlows(tb, 31, 3)

	oneShot := runSharded(tb, flows, "csma", traffic.Saturate(), 0x9, 3)

	rng := sim.NewRNG(0x9)
	pairs := make([][2]int, len(flows))
	for i, f := range flows {
		pairs[i] = [2]int{f.Src, f.Dst}
	}
	eng := NewEngine(tb.Params, tb.Model, tb.Pos, rng.Stream(1), Config{Shards: 3})
	_ = pairs // same partition not required here; counters only
	arm := mac.MustLookup("csma")
	meters := make([]*stats.Meter, len(flows))
	for i, f := range flows {
		tx := arm.New(f.Src, eng.Network(f.Src), rng.Stream(uint64(1000+f.Src)), mac.Options{Rate: phy.Rate6Mbps})
		rx := arm.New(f.Dst, eng.Network(f.Dst), rng.Stream(uint64(1000+f.Dst)), mac.Options{Rate: phy.Rate6Mbps})
		meters[i] = &stats.Meter{Start: testWarmup, End: testDuration}
		rx.SetMeter(meters[i])
		tx.SetSaturated(f.Dst)
	}
	// Chopped into uneven pieces: mid-window, exact-edge, mid-window.
	w := eng.Window()
	eng.Run(3*w + w/2)
	eng.Run(10 * w)
	eng.Run(100*w + 13)
	eng.Run(testDuration)
	if got := eng.Transmissions(); got == 0 {
		t.Fatal("no traffic flowed")
	}
	_ = oneShot
	// The chopped engine used an unpartitioned flow set, so compare it
	// against its own uninterrupted twin instead of oneShot.
	rng2 := sim.NewRNG(0x9)
	eng2 := NewEngine(tb.Params, tb.Model, tb.Pos, rng2.Stream(1), Config{Shards: 3})
	meters2 := make([]*stats.Meter, len(flows))
	for i, f := range flows {
		tx := arm.New(f.Src, eng2.Network(f.Src), rng2.Stream(uint64(1000+f.Src)), mac.Options{Rate: phy.Rate6Mbps})
		rx := arm.New(f.Dst, eng2.Network(f.Dst), rng2.Stream(uint64(1000+f.Dst)), mac.Options{Rate: phy.Rate6Mbps})
		meters2[i] = &stats.Meter{Start: testWarmup, End: testDuration}
		rx.SetMeter(meters2[i])
		tx.SetSaturated(f.Dst)
	}
	eng2.Run(testDuration)
	if eng.Transmissions() != eng2.Transmissions() {
		t.Fatalf("chopped run diverged: %d vs %d transmissions", eng.Transmissions(), eng2.Transmissions())
	}
	for i := range meters {
		if meters[i].Mbps() != meters2[i].Mbps() {
			t.Fatalf("flow %d: chopped %.9f Mb/s vs uninterrupted %.9f", i, meters[i].Mbps(), meters2[i].Mbps())
		}
	}
}

// TestShardDecodeRefusesTxDoneArg: a local frame is one agenda event, so
// the separate tx-done shape ({"radio":id}) an older agenda held is an
// unknown shape, refused with an error rather than a panic.
func TestShardDecodeRefusesTxDoneArg(t *testing.T) {
	tb := topo.NewTestbed(50, 3)
	eng := NewEngine(tb.Params, tb.Model, tb.Pos, sim.NewRNG(1), Config{Shards: 2})
	for _, enc := range []string{`{"radio":0}`, `{}`} {
		if arg, err := eng.shards[0].decodeShardArg(json.RawMessage(enc), map[uint64]*phy.Transmission{}); err == nil {
			t.Errorf("decodeShardArg(%s) = %v, want an error", enc, arg)
		}
	}
}
