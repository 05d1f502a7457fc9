package radio

import (
	"math"

	"repro/internal/geo"
	"repro/internal/sim"
)

// The shadowing screen. A link of a LogDistance model is within budget
// only if
//
//	meanLoss(d) + σ·v ≤ budget,  i.e.  v ≤ −t(d),  t(d) = (meanLoss(d) − budget)/σ
//
// and the Box–Muller variate NormFloat64 returns obeys |v| ≤ √(−2·ln u₁),
// where u₁ is the first uniform of the pair's stream. So wherever
// t(d) > 0 the pair is provably over budget when √(−2·ln u₁) < t(d),
// that is when
//
//	u₁ > exp(−t(d)²/2)
//
// — a test that needs u₁ and a table of the right-hand side by distance,
// and no logarithm, square root or cosine per pair. Three details keep
// it exact:
//
//   - NormFloat64 retries when u₁ is 0, and the uniform it then uses is
//     not the first. Zero is never greater than a threshold, so such a
//     pair is never refused.
//   - The ±MaxShadowSigmas clamp only ever raises a favourable (negative)
//     v, so the unclamped bound stays a bound.
//   - The table is a step function over screenRings distance rings, each
//     ring holding the threshold of its inner edge (the largest in the
//     ring, since t grows with d), and the thresholds are widened by
//     screenGuardDB and screenGuardRel, orders of magnitude more than the
//     rounding of Log10, Log, Exp and the ring index can add up to.

const (
	// screenRings is the number of equal-width distance rings between 0
	// and MaxRange. At the urban model's constants the ring straddling
	// t = 0 is 0.16σ wide and the survivors are under twice the kept
	// set; a 1024-ring table (in d²) let 2 % fewer through.
	screenRings = 128
	// screenGuardDB is subtracted from every ring's margin before it
	// becomes a threshold; the same scale as the medium's floor guard.
	screenGuardDB = 1e-6
	// screenGuardRel widens every threshold against Exp's rounding.
	screenGuardRel = 1e-9
)

// screenKey is everything a Screen's thresholds are computed from.
type screenKey struct {
	refLossDB, exponent, sigmaDB, minDistance, maxLossDB float64
}

// Screen is the precomputed half of a LogDistance screen: per distance
// ring, the value of the pair's first shadowing uniform above which the
// pair cannot be within the loss budget. It holds no seed, so one table
// serves every shadowing realisation of the model.
type Screen struct {
	key      screenKey
	perMetre float64 // rings per metre
	// minU[k] is the threshold of ring k; 1 where the ring's inner edge
	// is within budget unshadowed, which no uniform exceeds.
	minU [screenRings]float64
}

// Screen implements Screener. The table is memoised on the model.
func (m *LogDistance) Screen(maxLossDB float64) *Screen {
	key := screenKey{m.RefLossDB, m.Exponent, m.ShadowSigmaDB, m.MinDistance, maxLossDB}
	if s := m.screen.Load(); s != nil && s.key == key {
		return s
	}
	reach := m.MaxRange(maxLossDB)
	if !(m.ShadowSigmaDB > 0) || math.IsInf(reach, 1) || math.IsNaN(reach) {
		return nil
	}
	s := &Screen{key: key, perMetre: screenRings / reach}
	for k := range s.minU {
		inner := float64(k) / s.perMetre
		t := (m.meanLoss(inner) - maxLossDB - screenGuardDB) / m.ShadowSigmaDB
		s.minU[k] = 1
		if t > 0 {
			s.minU[k] = math.Exp(-t*t/2) * (1 + screenGuardRel)
		}
	}
	m.screen.Store(s)
	return s
}

// Inaudible implements Screener.
func (m *LogDistance) Inaudible(s *Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	return s.InaudibleSeeded(m.Seed, a, pa, b, pb)
}

// InaudibleSeeded is Inaudible under the shadowing realisation
// LossSeeded(seed, …) evaluates.
func (s *Screen) InaudibleSeeded(seed uint64, a int, pa geo.Point, b int, pb geo.Point) bool {
	k := int(pa.Dist(pb) * s.perMetre)
	if uint(k) >= screenRings {
		k = screenRings - 1 // beyond MaxRange: the last ring's bound still holds
	}
	// A ring within budget unshadowed refuses nothing: skip the hash, so
	// a layout smaller than the unshadowed range pays one table read.
	minU := s.minU[k]
	return minU < 1 && sim.NewRNG(pairStream(seed, a, b)).Float64() > minU
}
