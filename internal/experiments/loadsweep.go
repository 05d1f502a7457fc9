package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// sweepPayloadBytes is the application payload both MAC defaults use;
// the sweep's Mb/s axis converts through it.
const sweepPayloadBytes = 1400

// LoadPoint aggregates one offered-load position of the sweep across
// all sampled pairs.
type LoadPoint struct {
	// PerFlowMbps is the offered load per flow in Mb/s of payload.
	PerFlowMbps float64
	// Aggregate is the distribution over pairs of aggregate goodput.
	Aggregate map[Protocol]*stats.Dist
	// Latency pools every flow's per-packet delivery latency.
	Latency map[Protocol]*stats.Latency
	// Fairness is the distribution over pairs of Jain's index on the
	// two flows' goodputs.
	Fairness map[Protocol]*stats.Dist
	// Offered and Dropped sum the arrival counters over all flows.
	Offered, Dropped map[Protocol]uint64
}

// DropFrac returns the fraction of offered packets dropped at the
// queue tail under one arm.
func (p *LoadPoint) DropFrac(arm Protocol) float64 {
	if p.Offered[arm] == 0 {
		return 0
	}
	return float64(p.Dropped[arm]) / float64(p.Offered[arm])
}

// LoadSweep is the offered-load figure this reproduction adds beyond
// the paper: goodput and latency versus load, CMAP against the status
// quo, on a fixed set of topology pairs. Below saturation both
// protocols should track the offered load (the monotone regime the
// unsaturated-CSMA literature analyses); past the knee the exposed-pair
// topology is where CMAP's concurrency pays and carrier sense
// serialises.
type LoadSweep struct {
	Name     string
	Topology string // "exposed" or "hidden"
	Kind     traffic.Kind
	Arms     []Protocol
	Points   []LoadPoint
}

// OfferedLoad sweeps per-flow offered load (Mb/s of payload) over pairs
// of the given topology class ("exposed" or "hidden") under CMAP and
// CS+acks. The arrival process comes from opt.Traffic (its rate is
// overridden per sweep point); a saturated opt defaults to Poisson.
// Trials fan out across the worker pool like every other experiment,
// bit-identical at any worker count.
func OfferedLoad(tb *topo.Testbed, topology string, loads []float64, opt Options) *LoadSweep {
	// A nil campaign cannot fail: every error path in
	// OfferedLoadCampaign is manifest I/O.
	sweep, _ := OfferedLoadCampaign(tb, topology, loads, opt, nil)
	return sweep
}

// OfferedLoadCampaign is OfferedLoad with per-(load × pair × arm) crash
// recovery: completed trials are recorded in the campaign manifest as
// they finish, and a restarted sweep replays them from the manifest
// instead of the simulator. camp may be nil (no recording). The figure
// is bit-identical to OfferedLoad in every case.
func OfferedLoadCampaign(tb *topo.Testbed, topology string, loads []float64, opt Options, camp *checkpoint.Campaign) (*LoadSweep, error) {
	kind := opt.Traffic.Kind
	if kind == traffic.Saturated {
		kind = traffic.Poisson
	}
	tb = tb.Shared()
	rng := sim.NewRNG(opt.Seed ^ 0xf10ad)
	var pairs []topo.LinkPair
	switch topology {
	case "hidden":
		pairs = tb.HiddenPairs(rng, opt.Pairs)
	default:
		topology = "exposed"
		pairs = tb.ExposedPairs(rng, opt.Pairs)
	}
	arms := opt.armsOr([]Protocol{CSMAOn, CMAP})
	sweep := &LoadSweep{
		Name:     fmt.Sprintf("Load sweep: %s pairs, %v arrivals", topology, kind),
		Topology: topology,
		Kind:     kind,
		Arms:     arms,
	}
	type trialKey struct {
		li, pi int
		arm    Protocol
	}
	var keys []trialKey
	var pointKeys []string
	for li := range loads {
		for pi := range pairs {
			for _, arm := range arms {
				keys = append(keys, trialKey{li: li, pi: pi, arm: arm})
				pointKeys = append(pointKeys,
					fmt.Sprintf("loadsweep/%s/%s/load%g/pair%d", topology, arm, loads[li], pi))
			}
		}
	}
	// Each trial's seed is a pure function of its key, so the campaign
	// can skip completed trials without perturbing the rest.
	trials, err := resumableMap(camp, opt.pool(), pointKeys, func(t int) []FlowResult {
		k := keys[t]
		o := opt
		o.Traffic.Kind = kind
		// The axis means long-run offered load: duty-cycled kinds get
		// their peak rate scaled so the mean lands on the sweep value.
		o.Traffic = o.Traffic.WithOfferedMbps(loads[k.li], sweepPayloadBytes)
		flows := []topo.Link{pairs[k.pi].A, pairs[k.pi].B}
		seed := opt.Seed + uint64(k.li)*15485863 + uint64(k.pi)*7919 + k.arm.seedSalt()*104729
		return runFlows(tb, flows, k.arm, o, seed)
	})
	if err != nil {
		return nil, err
	}
	for _, load := range loads {
		pt := LoadPoint{
			PerFlowMbps: load,
			Aggregate:   map[Protocol]*stats.Dist{},
			Latency:     map[Protocol]*stats.Latency{},
			Fairness:    map[Protocol]*stats.Dist{},
			Offered:     map[Protocol]uint64{},
			Dropped:     map[Protocol]uint64{},
		}
		for _, arm := range arms {
			pt.Aggregate[arm] = &stats.Dist{}
			pt.Latency[arm] = &stats.Latency{}
			pt.Fairness[arm] = &stats.Dist{}
		}
		sweep.Points = append(sweep.Points, pt)
	}
	for t, k := range keys {
		rs := trials[t]
		pt := &sweep.Points[k.li]
		var mbps []float64
		for _, fr := range rs {
			mbps = append(mbps, fr.Mbps)
			pt.Latency[k.arm].Merge(fr.Lat)
			pt.Offered[k.arm] += fr.OfferedPkts
			pt.Dropped[k.arm] += fr.DroppedPkts
		}
		pt.Aggregate[k.arm].Add(aggregate(rs))
		pt.Fairness[k.arm].Add(stats.Jain(mbps))
	}
	return sweep, nil
}

// MedianAggregate returns the median aggregate goodput at point i.
func (s *LoadSweep) MedianAggregate(i int, arm Protocol) float64 {
	return s.Points[i].Aggregate[arm].Median()
}

// Format renders the sweep: per load, each arm's goodput, latency
// percentiles, fairness and tail-drop fraction.
func (s *LoadSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (offered load per flow; aggregate over both flows)\n", s.Name)
	fmt.Fprintf(&b, "%-10s %-14s %9s %9s %9s %9s %9s %7s %7s\n",
		"load Mb/s", "arm", "goodput", "p50 ms", "p95 ms", "p99 ms", "lat n", "Jain", "drop%")
	for _, pt := range s.Points {
		for _, arm := range s.Arms {
			l := pt.Latency[arm]
			fmt.Fprintf(&b, "%-10.2f %-14s %9.2f %9.2f %9.2f %9.2f %9d %7.2f %7.1f\n",
				pt.PerFlowMbps, arm.String(), pt.Aggregate[arm].Median(),
				l.P50(), l.P95(), l.P99(), l.N(),
				pt.Fairness[arm].Mean(), 100*pt.DropFrac(arm))
		}
	}
	return b.String()
}
