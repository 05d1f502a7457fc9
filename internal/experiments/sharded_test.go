package experiments

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// shardedTestOptions is a short-run configuration sized so the full
// serial-vs-sharded comparison matrix stays in test time, with enough
// post-warmup window that goodput is not quantization noise.
func shardedTestOptions() Options {
	opt := Quick(1)
	opt.Duration = 300 * sim.Millisecond
	opt.Warmup = 50 * sim.Millisecond
	return opt
}

// runShardedFlows is runFlows with the engine chosen: the figure suite
// always runs serial, so the sharded path is reached the way its real
// callers (cmapsim, the scale fixtures) reach it, through
// FlowSimConfig.Shards. 0 and 1 are the serial engine.
func runShardedFlows(t *testing.T, tb *topo.Testbed, flows []topo.Link, arm Protocol, opt Options, shards int, seed uint64) []FlowResult {
	t.Helper()
	fs, err := NewFlowSim(tb, flowSimConfig(string(arm), flows, opt, shards, opt.Traffic, seed))
	if err != nil {
		t.Fatal(err)
	}
	fs.Run(opt.Duration)
	return fs.Results()
}

// shardedTestFlows samples non-overlapping potential-link flows spread
// across the testbed (same shape as the shard package's own harness).
func shardedTestFlows(tb *topo.Testbed, seed uint64, count int) []topo.Link {
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

// TestShardedRunFlowsEquivalence pins the FlowSimConfig.Shards plumbing
// end to end through NewFlowSim: shards>1 must stay at figure-level
// equivalence with the serial engine — per-flow within 30% or
// 0.25 Mb/s, aggregate within 15% — exactly the bound the shard package
// proves for its own harness. (Shards 0 and 1 both select the serial
// engine; the one-shard engine's bit-identity is internal/shard's
// TestShardOneBitIdenticalToSerial.)
func TestShardedRunFlowsEquivalence(t *testing.T) {
	tb := topo.NewTestbed(50, 11)
	flows := shardedTestFlows(tb, 23, 4)
	if len(flows) < 2 {
		t.Fatalf("only %d flows sampled", len(flows))
	}
	const seed = 0xfeed
	opt := shardedTestOptions()
	ref := runShardedFlows(t, tb, flows, CSMAOn, opt, 0, seed)
	var refAgg float64
	for _, r := range ref {
		refAgg += r.Mbps
	}

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := runShardedFlows(t, tb, flows, CSMAOn, opt, shards, seed)
			var agg float64
			for i := range ref {
				agg += got[i].Mbps
				diff := got[i].Mbps - ref[i].Mbps
				if diff < 0 {
					diff = -diff
				}
				if diff > 0.30*ref[i].Mbps && diff > 0.25 {
					t.Errorf("flow %d: sharded %.3f Mb/s vs serial %.3f Mb/s", i, got[i].Mbps, ref[i].Mbps)
				}
			}
			if aggDiff := agg - refAgg; aggDiff > 0.15*refAgg || -aggDiff > 0.15*refAgg {
				t.Errorf("aggregate: sharded %.3f Mb/s vs serial %.3f Mb/s", agg, refAgg)
			}
		})
	}
}

// TestShardedRunFlowsDeterminism pins run-to-run determinism of the
// experiments-level sharded path at a fixed shard count.
func TestShardedRunFlowsDeterminism(t *testing.T) {
	tb := topo.NewTestbed(50, 5)
	flows := shardedTestFlows(tb, 31, 4)
	opt := shardedTestOptions()
	a := runShardedFlows(t, tb, flows, CMAP, opt, 3, 0xd5)
	b := runShardedFlows(t, tb, flows, CMAP, opt, 3, 0xd5)
	for i := range a {
		if a[i].Mbps != b[i].Mbps || a[i].VpktsSent != b[i].VpktsSent {
			t.Fatalf("flow %d differs across identical runs: %.9f/%d vs %.9f/%d",
				i, a[i].Mbps, a[i].VpktsSent, b[i].Mbps, b[i].VpktsSent)
		}
	}
}

// TestShardedTrafficFlows covers the arrival-process workload on the
// sharded engine: at shards>1 a Poisson run is deterministic and still
// delivers.
func TestShardedTrafficFlows(t *testing.T) {
	tb := topo.NewTestbed(50, 11)
	flows := shardedTestFlows(tb, 23, 4)
	opt := shardedTestOptions()
	opt.Traffic = traffic.Spec{Kind: traffic.Poisson}.WithOfferedMbps(2.0, 1400)
	const seed = 0xace

	t.Run("shards=2", func(t *testing.T) {
		a := runShardedFlows(t, tb, flows, CSMAOn, opt, 2, seed)
		b := runShardedFlows(t, tb, flows, CSMAOn, opt, 2, seed)
		var delivered uint64
		for i := range a {
			delivered += a[i].DeliveredPkts
			if a[i].Mbps != b[i].Mbps || a[i].DeliveredPkts != b[i].DeliveredPkts {
				t.Fatalf("flow %d differs across identical runs", i)
			}
		}
		if delivered == 0 {
			t.Fatal("no packets delivered through the sharded traffic path")
		}
	})
}
