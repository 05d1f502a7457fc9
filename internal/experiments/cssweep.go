package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/stats"
	"repro/internal/topo"
)

// The carrier-sense threshold sweep is the repo's own figure (no paper
// counterpart): it quantifies the tradeoff CMAP sidesteps. A blinder
// threshold frees exposed pairs to transmit concurrently, but strips
// hidden-leaning pairs of what little energy-sensing protection they
// had. Sweeping the cs@<dBm> arm family across both pair classes makes
// the tension visible as two crossing curves and one knee.

// DefaultCSThresholds spans from "senses everything above the noise
// floor" (−96 dBm) to "defers to almost nothing" (−78 dBm) in 3 dB
// steps, bracketing the 802.11 default of −90 dBm.
var DefaultCSThresholds = []float64{-96, -93, -90, -87, -84, -81, -78}

// CSSweepPoint is one threshold position: the goodput distributions of
// the same exposed and hidden pair samples under cs@<ThresholdDBm>.
type CSSweepPoint struct {
	ThresholdDBm float64
	Arm          Protocol
	Exposed      *stats.Dist // aggregate Mb/s per exposed pair
	Hidden       *stats.Dist // aggregate Mb/s per hidden pair
}

// Combined is the point's scalar score: the sum of the two class
// medians, weighting needless serialisation and collision damage
// equally.
func (p CSSweepPoint) Combined() float64 {
	return p.Exposed.Median() + p.Hidden.Median()
}

// CSSweepResult is the full sweep plus the flagged knee.
type CSSweepResult struct {
	Points []CSSweepPoint
	// KneeDBm is the blindest threshold whose Combined() score stays
	// within kneeTolerance of the sweep's best: how far sensing can be
	// relaxed for free before hidden-pair collision damage outruns the
	// exposed-pair concurrency gains.
	KneeDBm float64
}

// kneeTolerance is the fractional combined-score slack the knee search
// allows: thresholds scoring within 2% of the best are considered
// equivalent, and the blindest of them is the knee.
const kneeTolerance = 0.02

// Knee returns the point at KneeDBm.
func (r *CSSweepResult) Knee() CSSweepPoint {
	for _, p := range r.Points {
		if p.ThresholdDBm == r.KneeDBm {
			return p
		}
	}
	return CSSweepPoint{}
}

// CSThresholdSweep measures every threshold arm over the exposed pairs
// of Figure 12 and the hidden pairs of Figure 15, so the sweep's curves
// are directly comparable with the protocol-arm figures. It is one pair
// experiment over both samples, the exposed pairs first: each
// threshold's arm carries its own seed salt, so trials are decorrelated
// across sweep positions exactly like protocol arms are in the pair
// experiments. A repeated threshold is measured once.
func CSThresholdSweep(tb *topo.Testbed, opt Options, thresholds []float64) *CSSweepResult {
	if len(thresholds) == 0 {
		thresholds = DefaultCSThresholds
	}
	exposed := pairDraws["exposed"].pairs(tb, opt)
	pairs := append(exposed, pairDraws["hidden"].pairs(tb, opt)...)
	res := &CSSweepResult{}
	var arms []Protocol
	for _, thr := range thresholds {
		if arm := CSAt(thr); !slices.Contains(arms, arm) {
			arms = append(arms, arm)
			res.Points = append(res.Points, CSSweepPoint{
				ThresholdDBm: thr, Arm: arm, Exposed: &stats.Dist{}, Hidden: &stats.Dist{}})
		}
	}
	ex := runPairExperiment("", tb, pairs, arms, opt)
	best := -1.0
	for _, p := range res.Points {
		for i, rs := range ex.Flows[p.Arm] {
			if i < len(exposed) {
				p.Exposed.Add(aggregate(rs))
			} else {
				p.Hidden.Add(aggregate(rs))
			}
		}
		if c := p.Combined(); c > best {
			best = c
		}
	}
	// The knee: the blindest threshold still scoring within tolerance of
	// the best. Points arrive in caller order, so scan by dBm explicitly.
	knee, found := 0.0, false
	for _, p := range res.Points {
		if p.Combined() < best*(1-kneeTolerance) {
			continue
		}
		if !found || p.ThresholdDBm > knee {
			knee = p.ThresholdDBm
			found = true
		}
	}
	res.KneeDBm = knee
	return res
}

// Format renders the sweep as a threshold table with the knee flagged —
// the textual stand-in for the two-curve tradeoff plot.
func (r *CSSweepResult) Format() string {
	var b strings.Builder
	b.WriteString("Goodput vs carrier-sense threshold (median aggregate Mb/s)\n")
	fmt.Fprintf(&b, "%-12s%10s%10s%10s\n", "threshold", "exposed", "hidden", "combined")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s%10.2f%10.2f%10.2f", string(p.Arm),
			p.Exposed.Median(), p.Hidden.Median(), p.Combined())
		if p.ThresholdDBm == r.KneeDBm {
			b.WriteString("   <- knee")
		}
		b.WriteString("\n")
	}
	k := r.Knee()
	fmt.Fprintf(&b, "knee at %g dBm: exposed %.2f, hidden %.2f Mb/s — relaxing sensing past this point costs more on hidden pairs than it gains on exposed ones\n",
		r.KneeDBm, k.Exposed.Median(), k.Hidden.Median())
	return b.String()
}
