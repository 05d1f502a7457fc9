package experiments

import (
	"fmt"
	"strings"

	"repro/internal/mobility"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
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

// StalenessPoint is one node speed: the aggregate-goodput distribution
// of the same exposed-pair sample per arm.
type StalenessPoint struct {
	SpeedMps float64
	Dists    map[Protocol]*stats.Dist
}

// Advantage returns the ratio of arm a's median to arm b's at this
// speed (0 when b's median is 0).
func (p StalenessPoint) Advantage(a, b Protocol) float64 {
	den := p.Dists[b].Median()
	if den == 0 {
		return 0
	}
	return p.Dists[a].Median() / den
}

// StalenessResult is the full sweep.
type StalenessResult struct {
	Arms   []Protocol
	Points []StalenessPoint
}

// StalenessSweep measures every (pair, speed, arm) trial independently
// across the worker pool: goodput versus node speed under random
// waypoint mobility for the given arms (default CMAP vs csma vs
// rtscts) over its own draw of exposed pairs. Results are
// bit-identical at any worker count — each trial's randomness, its
// trajectories included, derives from a seed fixed before dispatch.
func StalenessSweep(tb *topo.Testbed, opt Options, speeds []float64) *StalenessResult {
	if len(speeds) == 0 {
		speeds = DefaultStalenessSpeeds
	}
	// Only the static trials reuse its rows: a moving run re-draws
	// shadowing through a model of its own.
	tb = tb.Shared()
	arms := opt.armsOr([]Protocol{CMAP, CSMAOn, RTSCTS})
	// Exposed pairs by Figure 12's selection rule but from this figure's
	// own stream (Figure 12 draws from opt.Seed^0xf16), so the zero-speed
	// column is a static exposed-terminal run, not Figure 12's numbers.
	pairs := tb.ExposedPairs(sim.NewRNG(opt.Seed^0x57a1e), opt.Pairs)

	res := &StalenessResult{Arms: arms}
	trials := runner.Map(opt.pool(), len(pairs)*len(speeds)*len(arms), func(t int) float64 {
		i := t / (len(speeds) * len(arms))
		s := t / len(arms) % len(speeds)
		arm := arms[t%len(arms)]
		ropt := opt
		ropt.Mobility = StalenessSpec(speeds[s])
		flows := []topo.Link{pairs[i].A, pairs[i].B}
		// The speed index joins the trial seed the same way pair and arm
		// salts do, decorrelating sweep positions from one another.
		rs := runFlows(tb, flows, arm, ropt, opt.Seed+uint64(i)*7919+arm.seedSalt()*104729+uint64(s)*15485863)
		return aggregate(rs)
	})
	for s, v := range speeds {
		p := StalenessPoint{SpeedMps: v, Dists: map[Protocol]*stats.Dist{}}
		for _, arm := range arms {
			p.Dists[arm] = &stats.Dist{}
		}
		for i := range pairs {
			for j, arm := range arms {
				p.Dists[arm].Add(trials[i*len(speeds)*len(arms)+s*len(arms)+j])
			}
		}
		res.Points = append(res.Points, p)
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
	if r.has(CMAP, CSMAOn) {
		fmt.Fprintf(&b, "%14s", "cmap/csma")
	}
	b.WriteString("\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10g", p.SpeedMps)
		for _, a := range r.Arms {
			fmt.Fprintf(&b, "%12.2f", p.Dists[a].Median())
		}
		if r.has(CMAP, CSMAOn) {
			fmt.Fprintf(&b, "%13.2fx", p.Advantage(CMAP, CSMAOn))
		}
		b.WriteString("\n")
	}
	if r.has(CMAP, CSMAOn) && len(r.Points) > 1 {
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		fmt.Fprintf(&b, "CMAP's exposed-pair advantage over carrier sense: %.2fx static -> %.2fx at %g m/s — conflict maps go stale as fast as the geometry they memorised\n",
			first.Advantage(CMAP, CSMAOn), last.Advantage(CMAP, CSMAOn), last.SpeedMps)
	}
	return b.String()
}

func (r *StalenessResult) has(arms ...Protocol) bool {
	for _, want := range arms {
		found := false
		for _, a := range r.Arms {
			if a == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
