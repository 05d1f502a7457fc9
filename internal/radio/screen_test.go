package radio

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

// TestScreenRingsAreInnerEdgeAndGuarded pins the table itself: every
// ring's threshold is strictly above the unguarded value at the ring's
// inner edge (so neither a flipped guard nor an outer-edge table
// passes), rings whose inner edge is within budget unshadowed refuse
// nothing, and the thresholds never rise with distance.
func TestScreenRingsAreInnerEdgeAndGuarded(t *testing.T) {
	for _, m := range []*LogDistance{DefaultUrban5GHz(1), DefaultIndoor5GHz(1),
		{RefLossDB: 40, Exponent: 2, ShadowSigmaDB: 0.5, MinDistance: 30}} {
		const budget = 115.0
		s := m.Screen(budget)
		if s == nil {
			t.Fatalf("%+v: no screen", m)
		}
		reach := m.MaxRange(budget)
		open, shut := 0, 0
		for k, got := range s.minU {
			inner := reach * float64(k) / screenRings
			tt := (m.meanLoss(inner) - budget) / m.ShadowSigmaDB
			if tt <= 0 {
				open++
				if got != 1 {
					t.Fatalf("ring %d (from %.1f m, %.2fσ inside budget): threshold %v, want 1", k, inner, -tt, got)
				}
				continue
			}
			shut++
			if exact := math.Exp(-tt * tt / 2); !(got > exact) {
				t.Fatalf("ring %d (from %.1f m, t=%.3f): threshold %v is not above the unguarded %v", k, inner, tt, got, exact)
			}
			if k > 0 && got > s.minU[k-1] {
				t.Fatalf("ring %d: threshold %v rises above ring %d's %v", k, got, k-1, s.minU[k-1])
			}
		}
		if open == 0 || shut == 0 {
			t.Fatalf("%+v: %d open and %d screening rings — the table does not straddle the budget", m, open, shut)
		}
	}
}

// TestScreenMemoised pins trap 4: the table is built once per (model
// constants, budget), not once per caller, and an edited model or a
// different budget gets a table of its own.
func TestScreenMemoised(t *testing.T) {
	m := DefaultUrban5GHz(3)
	s := m.Screen(110)
	if s == nil || m.Screen(110) != s {
		t.Fatal("second Screen(110) did not return the memoised table")
	}
	if n := testing.AllocsPerRun(100, func() { m.Screen(110) }); n != 0 {
		t.Fatalf("memoised Screen allocates %v times per call", n)
	}
	if other := m.Screen(100); other == s || other.key.maxLossDB != 100 {
		t.Fatal("a different budget was served the old table")
	}
	m.Seed = 99 // not part of the table
	s = m.Screen(100)
	m.ShadowSigmaDB = 7
	if edited := m.Screen(100); edited == s || edited.key.sigmaDB != 7 {
		t.Fatal("an edited model was served the old table")
	}
	for name, none := range map[string]*LogDistance{
		"no shadowing": {RefLossDB: 47, Exponent: 3},
		"no range":     {RefLossDB: 47, ShadowSigmaDB: 4},
		"NaN exponent": {RefLossDB: 47, Exponent: math.NaN(), ShadowSigmaDB: 4},
	} {
		if none.Screen(110) != nil {
			t.Errorf("%s: got a screen", name)
		}
	}
}

// unmix inverts the SplitMix64 output function, so a test can choose
// what a stream's first draw is.
func unmix(z uint64) uint64 {
	inverse := func(a uint64) uint64 { // of an odd a, mod 2⁶⁴, by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z
}

// seedWithFirstDraw returns the model seed under which pair (a, b)'s
// shadowing stream opens with the given 64 bits.
func seedWithFirstDraw(t *testing.T, a, b int, bits uint64) uint64 {
	t.Helper()
	stream := unmix(bits) - 0x9e3779b97f4a7c15
	seed := pairStream(0, a, b) ^ stream
	if got := sim.NewRNG(pairStream(seed, a, b)).Uint64(); got != bits {
		t.Fatalf("constructed seed draws %#x first, want %#x", got, bits)
	}
	return seed
}

// TestScreenAwkwardFirstDraws pins traps 1 and 2 on constructed pairs:
// a first uniform of exactly 0 (NormFloat64 discards it and draws
// again, so it says nothing about the variate and the screen must let
// the pair through at every distance), a first uniform so small the
// unclamped variate reaches past ±MaxShadowSigmas, and a pair whose
// stream seed is 0 (NewRNG remaps it). At every ring edge, refused
// must imply over budget.
func TestScreenAwkwardFirstDraws(t *testing.T) {
	const a, b, budget = 17, 4, 115.0
	draws := map[string]uint64{
		"u1=0":        0x3ff, // all of it below the 11 bits Float64 drops
		"u1=2^-53":    1 << 11,
		"beyond 6σ":   1 << 24, // u₁ = 2⁻⁴⁰, √(−2·ln u₁) = 7.4
		"u1 just <1":  math.MaxUint64,
		"typical":     0x8000000000000000,
		"zero stream": 0, // placeholder, seed set below
	}
	for name, bits := range draws {
		m := DefaultUrban5GHz(0)
		if name == "zero stream" {
			m.Seed = pairStream(0, a, b)
			if pairStream(m.Seed, a, b) != 0 {
				t.Fatal("stream seed is not zero")
			}
		} else {
			m.Seed = seedWithFirstDraw(t, a, b, bits)
		}
		s := m.Screen(budget)
		reach := m.MaxRange(budget)
		refused := 0
		for k := 0; k <= 3*screenRings; k++ {
			edge := reach * float64(k) / screenRings
			for _, d := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				pa, pb := geo.Point{}, geo.Point{X: d}
				if !m.Inaudible(s, a, pa, b, pb) {
					continue
				}
				refused++
				if name == "u1=0" {
					t.Fatalf("%s: refused at %v m on a draw NormFloat64 discards", name, d)
				}
				if loss := m.Loss(a, pa, b, pb); !(loss > budget) {
					t.Fatalf("%s: refused at %v m but loss %v is within budget %v", name, d, loss, budget)
				}
				if !m.Inaudible(s, b, pb, a, pa) {
					t.Fatalf("%s: refused a→b at %v m but not b→a", name, d)
				}
			}
		}
		if name == "u1 just <1" && refused == 0 {
			t.Fatalf("%s: never refused — the screen is not screening", name)
		}
	}
}
