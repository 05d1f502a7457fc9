package experiments

import (
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sweepTestOptions is a sweep-sized scale: enough virtual time past the
// warm-up for latency percentiles to settle, few enough pairs to stay
// test-tier fast.
func sweepTestOptions(t *testing.T, seed uint64) Options {
	opt := Quick(seed)
	opt.Duration = 8 * sim.Second
	opt.Warmup = 2 * sim.Second
	opt.Pairs = 4
	if testing.Short() {
		opt.Duration = 5 * sim.Second
		opt.Warmup = 1 * sim.Second
		opt.Pairs = 2
	}
	return opt
}

// TestTrafficModeDeliversOfferedLoad is the below-saturation sanity
// check: a 1 Mb/s Poisson flow on a strong exposed-pair link should be
// delivered nearly in full by both protocols, with measured latency.
func TestTrafficModeDeliversOfferedLoad(t *testing.T) {
	opt := sweepTestOptions(t, 1)
	opt.Traffic = traffic.PoissonAt(traffic.PacketsPerSecFor(1.0, mac.DefaultPayload))
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	pairs := tb.ExposedPairs(sim.NewRNG(opt.Seed^0xf10ad), 1)
	if len(pairs) == 0 {
		t.Skip("no exposed pairs on this testbed seed")
	}
	for _, arm := range []Protocol{CMAP, CSMAOn} {
		rs := runFlows(tb, []topo.Link{pairs[0].A}, arm, opt, opt.Seed+99)
		fr := rs[0]
		if fr.Mbps < 0.8 || fr.Mbps > 1.2 {
			t.Errorf("%v: goodput %.2f Mb/s for 1.0 Mb/s offered", arm, fr.Mbps)
		}
		if fr.Lat == nil || fr.Lat.N() == 0 {
			t.Fatalf("%v: no latency samples", arm)
		}
		if p50 := fr.Lat.P50(); p50 <= 0 || p50 > 100 {
			t.Errorf("%v: implausible p50 latency %.2f ms at light load", arm, p50)
		}
		if fr.OfferedPkts == 0 || fr.AcceptedPkts > fr.OfferedPkts {
			t.Errorf("%v: inconsistent arrival counters %+v", arm, fr)
		}
	}
}

// TestOfferedLoadSweep checks the figure's two headline properties on
// exposed pairs: goodput tracks offered load monotonically below
// saturation, and at high load CMAP's concurrency beats carrier
// sense's serialisation.
func TestOfferedLoadSweep(t *testing.T) {
	opt := sweepTestOptions(t, 1)
	loads := []float64{0.5, 1, 2, 8}
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	sw := OfferedLoad(tb, "exposed", loads, opt)
	if len(sw.Points) != len(loads) {
		t.Fatalf("%d points for %d loads", len(sw.Points), len(loads))
	}
	for _, arm := range sw.Arms {
		// Below saturation (0.5 → 1 → 2 Mb/s per flow) goodput must rise
		// with load; 5% slack absorbs contention noise at small scales.
		for i := 0; i+1 < 3; i++ {
			lo, hi := sw.MedianAggregate(i, arm), sw.MedianAggregate(i+1, arm)
			if hi < lo*0.95 {
				t.Errorf("%v: goodput not monotone below saturation: %.2f → %.2f Mb/s (loads %.1f → %.1f)",
					arm, lo, hi, loads[i], loads[i+1])
			}
		}
		// Light load is delivered nearly in full.
		if got, want := sw.MedianAggregate(0, arm), 2*loads[0]; got < 0.7*want {
			t.Errorf("%v: light-load goodput %.2f, want ≈%.2f", arm, got, want)
		}
		if sw.Points[len(loads)-1].Latency[arm].N() == 0 {
			t.Errorf("%v: no latency samples at the top load", arm)
		}
	}
	top := len(loads) - 1
	cm, cs := sw.MedianAggregate(top, CMAP), sw.MedianAggregate(top, CSMAOn)
	if cm < cs {
		t.Errorf("at saturating load CMAP %.2f < CSMA %.2f Mb/s on exposed pairs", cm, cs)
	}
	t.Logf("\n%s", sw.Format())
}

// TestLoadSweepWorkerEquivalence replays a miniature sweep serially and
// across 4 workers: bit-identical results prove the traffic path keeps
// the repo's parallelism invariant (seeds fixed before dispatch).
func TestLoadSweepWorkerEquivalence(t *testing.T) {
	opt := sweepTestOptions(t, 3)
	opt.Pairs = 2
	opt.Duration = 3 * sim.Second
	opt.Warmup = 1 * sim.Second
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	loads := []float64{1, 4}
	opt.Workers = 1
	serial := OfferedLoad(tb, "exposed", loads, opt)
	opt.Workers = 4
	parallel := OfferedLoad(tb, "exposed", loads, opt)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("load sweep differs between 1 and 4 workers")
	}
}

// TestChurnedFlowsRun smoke-tests flow churn end to end on the MAC
// stack: sessions alternate, packets still arrive and deliver.
func TestChurnedFlowsRun(t *testing.T) {
	opt := sweepTestOptions(t, 5)
	opt.Traffic = traffic.PoissonAt(traffic.PacketsPerSecFor(2.0, mac.DefaultPayload))
	opt.Traffic.UpMean = 500 * sim.Millisecond
	opt.Traffic.DownMean = 500 * sim.Millisecond
	tb := topo.NewTestbed(opt.Nodes, opt.Seed)
	pairs := tb.ExposedPairs(sim.NewRNG(opt.Seed^0xf10ad), 1)
	if len(pairs) == 0 {
		t.Skip("no exposed pairs on this testbed seed")
	}
	rs := runFlows(tb, []topo.Link{pairs[0].A, pairs[0].B}, CMAP, opt, opt.Seed+7)
	for _, fr := range rs {
		if fr.DeliveredPkts == 0 {
			t.Errorf("churned flow %d→%d delivered nothing", fr.Link.Src, fr.Link.Dst)
		}
		// Duty cycle 50%: accepted should be well below an unchurned run's
		// ~2 Mb/s×duration worth of packets but clearly nonzero.
		if fr.AcceptedPkts == 0 || fr.AcceptedPkts >= fr.OfferedPkts+1 && fr.OfferedPkts == 0 {
			t.Errorf("churned flow counters implausible: %+v", fr)
		}
	}
}
