package experiments

import (
	"fmt"
	"strings"

	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The staleness sweep is the repo's own figure (the paper's testbed was
// frozen in place): goodput versus node speed for CMAP against plain
// carrier sense and RTS/CTS, over the exposed-pair sample where CMAP's
// learned conflict maps buy their concurrency. Movement makes the
// exposed/hidden classification time-varying: every position epoch the
// map entries learned at the old geometry go a little more stale, so
// CMAP's advantage over csma should shrink as speed rises — the
// question the original static deployment could not ask.

// DefaultStalenessSpeeds spans static through brisk vehicular motion in
// m/s.
var DefaultStalenessSpeeds = []float64{0, 1, 2, 5, 10, 20}

// StalenessRangeM confines each node's waypoint roaming to a disk
// around its starting position. Office-scale wandering (rather than
// arena-wide drift) keeps the measured pairs connected at every speed,
// so the curves isolate map staleness from outright link loss.
const StalenessRangeM = 12

// StalenessDecorrM is the shadowing decorrelation distance of the
// sweep's mobile channel: links re-draw their shadowing every 10 m of
// endpoint travel, the second mechanism (besides geometry) by which a
// learned map rots.
const StalenessDecorrM = 10

// StalenessPoint is one node speed: the pair experiment over the same
// exposed-pair sample at that speed.
type StalenessPoint struct {
	SpeedMps float64
	*PairExperiment
}

// StalenessResult is the full sweep.
type StalenessResult struct {
	Arms   []Protocol
	Points []StalenessPoint
}

// StalenessSweep measures goodput versus node speed under random
// waypoint mobility for the given arms (default CMAP vs csma vs
// rtscts) over its own draw of exposed pairs: one pair sweep whose
// points are the speeds, each trial's trajectories seeded with it.
func StalenessSweep(tb *topo.Testbed, opt Options, speeds []float64) *StalenessResult {
	if len(speeds) == 0 {
		speeds = DefaultStalenessSpeeds
	}
	arms := opt.armsOr([]Protocol{CMAP, CSMAOn, RTSCTS})
	// Figure 12's selection rule from this figure's own stream: the
	// zero-speed column is a static exposed-terminal run, not Figure 12.
	pairs := tb.ExposedPairs(sim.NewRNG(opt.Seed^0x57a1e), opt.Pairs)
	points := make([]Options, len(speeds))
	for s, v := range speeds {
		points[s] = opt
		points[s].Mobility = StalenessSpec(v)
		points[s].Seed += uint64(s) * 15485863 // decorrelates the speeds
	}
	exs, _ := sweepPairs(tb, pairs, arms, points, nil, nil)
	res := &StalenessResult{Arms: arms}
	for s, v := range speeds {
		res.Points = append(res.Points, StalenessPoint{SpeedMps: v, PairExperiment: exs[s]})
	}
	return res
}

// StalenessSpec is the sweep's mobility configuration at one speed:
// random waypoint within StalenessRangeM of home, shadowing re-drawn
// every StalenessDecorrM metres. Zero speed is the static baseline.
func StalenessSpec(speed float64) mobility.Spec {
	if speed <= 0 {
		return mobility.Spec{}
	}
	return mobility.Spec{
		Kind:     mobility.Waypoint,
		SpeedMps: speed,
		RangeM:   StalenessRangeM,
		DecorrM:  StalenessDecorrM,
	}
}

// Format renders the sweep as a speed table with CMAP's advantage over
// csma in the last column — the textual stand-in for the staleness
// decay plot.
func (r *StalenessResult) Format() string {
	var b strings.Builder
	b.WriteString("Goodput vs node speed (median aggregate Mb/s, exposed pairs, waypoint mobility)\n")
	fmt.Fprintf(&b, "%-10s", "m/s")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%12s", a.String())
	}
	gain := len(r.Points) > 0 && r.Points[0].Ran(CMAP, CSMAOn)
	if gain {
		fmt.Fprintf(&b, "%14s", "cmap/csma")
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10g", p.SpeedMps)
		for _, a := range r.Arms {
			fmt.Fprintf(&b, "%12.2f", p.Median(a))
		}
		if gain {
			fmt.Fprintf(&b, "%13.2fx", p.Gain(CMAP, CSMAOn))
		}
		b.WriteString("\n")
	}
	if gain && len(r.Points) > 1 {
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		fmt.Fprintf(&b, "CMAP's exposed-pair advantage over carrier sense: %.2fx static -> %.2fx at %g m/s — conflict maps go stale as fast as the geometry they memorised\n",
			first.Gain(CMAP, CSMAOn), last.Gain(CMAP, CSMAOn), last.SpeedMps)
	}
	return b.String()
}
