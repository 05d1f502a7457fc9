package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

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
	if opt.Traffic.Kind == traffic.Saturated {
		opt.Traffic.Kind = traffic.Poisson
	}
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
		Name:     fmt.Sprintf("Load sweep: %s pairs, %v arrivals", topology, opt.Traffic.Kind),
		Topology: topology,
		Kind:     opt.Traffic.Kind,
		Arms:     arms,
	}
	points := make([]Options, len(loads))
	for li, load := range loads {
		points[li] = opt
		// The axis means long-run offered load: duty-cycled kinds get
		// their peak rate scaled so the mean lands on the sweep value.
		points[li].Traffic = points[li].Traffic.WithOfferedMbps(load, mac.DefaultPayload)
		points[li].Seed += uint64(li) * 15485863
	}
	// Each trial's seed is a pure function of its key, so the campaign
	// can skip completed trials without perturbing the rest.
	exs, err := sweepPairs(tb, pairs, arms, points, camp, func(li, pi int, arm Protocol) string {
		return fmt.Sprintf("loadsweep/%s/%s/load%g/pair%d", topology, arm, loads[li], pi)
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		pt := LoadPoint{
			PerFlowMbps: load,
			Aggregate:   exs[li].Dists,
			Latency:     map[Protocol]*stats.Latency{},
			Fairness:    map[Protocol]*stats.Dist{},
			Offered:     map[Protocol]uint64{},
			Dropped:     map[Protocol]uint64{},
		}
		for _, arm := range arms {
			pt.Latency[arm] = &stats.Latency{}
			pt.Fairness[arm] = &stats.Dist{}
			for _, rs := range exs[li].Flows[arm] {
				var mbps []float64
				for _, fr := range rs {
					mbps = append(mbps, fr.Mbps)
					pt.Latency[arm].Merge(fr.Lat)
					pt.Offered[arm] += fr.OfferedPkts
					pt.Dropped[arm] += fr.DroppedPkts
				}
				pt.Fairness[arm].Add(stats.Jain(mbps))
			}
		}
		sweep.Points = append(sweep.Points, pt)
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
