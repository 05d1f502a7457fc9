package radio_test

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/sim"
)

// screenCase is one pair under one model, in the shape the fuzzer
// mutates: raw values that checkScreen folds into sane ranges.
type screenCase struct {
	ref, exp, sigma, minDist, budget float64
	seed                             uint64
	a, b, ea, eb                     uint16
	frac, theta                      float64 // pb = pa + frac·MaxRange at angle theta
}

// into folds any float into [lo, hi).
func into(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// checkScreen asserts reciprocity and the screen's one-sided contract
// for the case, on the bare model and through a mobility.Channel whose
// epochs the case's counts of Bump calls reached: Loss returns the same
// bits in both directions of the pair — there and under a FreeSpace
// model of the same constants — which is what lets construction
// evaluate each pair of a range-bounded model once; whenever the pair
// is refused its Loss exceeds the budget; and both directions of the
// pair get the same answer. It reports how many of the two askings were
// refused.
func checkScreen(t *testing.T, c screenCase) (refused int) {
	t.Helper()
	model := &radio.LogDistance{
		RefLossDB:     into(c.ref, 20, 90),
		Exponent:      into(c.exp, 1.5, 6),
		ShadowSigmaDB: into(c.sigma, 0, 12),
		MinDistance:   into(c.minDist, 0, 50),
		Seed:          c.seed,
	}
	free := &radio.FreeSpace{RefLossDB: model.RefLossDB, Exponent: model.Exponent, MinDistance: model.MinDistance}
	budget := into(c.budget, 60, 160)
	a, b := int(c.a), int(c.b)
	ch := mobility.NewChannel(model, max(a, b)+1)
	for range c.ea {
		ch.Bump(a)
	}
	for range c.eb {
		ch.Bump(b)
	}
	d := into(c.frac, 0, 2) * model.MaxRange(budget)
	theta := into(c.theta, 0, 7)
	pa := geo.Point{X: 100, Y: -40}
	pb := geo.Point{X: pa.X + d*math.Cos(theta), Y: pa.Y + d*math.Sin(theta)}
	for name, m := range map[string]radio.Model{"model": model, "channel": ch, "free space": free} {
		if ab, ba := m.Loss(a, pa, b, pb), m.Loss(b, pb, a, pa); math.Float64bits(ab) != math.Float64bits(ba) {
			t.Fatalf("%s %+v epochs %d,%d: Loss %d→%d is %x, %d→%d is %x",
				name, model, ch.Epoch(a), ch.Epoch(b), a, b, math.Float64bits(ab), b, a, math.Float64bits(ba))
		}
	}
	tab := model.Screen(budget)
	if tab == nil {
		if model.ShadowSigmaDB > 0 {
			t.Fatalf("%+v: shadowed, range-bounded, and no screen", model)
		}
		return 0
	}
	if ch.Screen(budget) != tab {
		t.Fatal("the channel built a table of its own")
	}
	for name, m := range map[string]interface {
		radio.Model
		radio.Screener
	}{"model": model, "channel": ch} {
		if !m.Inaudible(tab, a, pa, b, pb) {
			if m.Inaudible(tab, b, pb, a, pa) {
				t.Fatalf("%s %+v: %d→%d passes and %d→%d is refused", name, model, a, b, b, a)
			}
			continue
		}
		refused++
		if !m.Inaudible(tab, b, pb, a, pa) {
			t.Fatalf("%s %+v: %d→%d is refused and %d→%d passes", name, model, a, b, b, a)
		}
		if loss := m.Loss(a, pa, b, pb); !(loss > budget) {
			t.Fatalf("%s %+v epochs %d,%d: %d→%d at %v m refused, but loss %v is within budget %v",
				name, model, ch.Epoch(a), ch.Epoch(b), a, b, pa.Dist(pb), loss, budget)
		}
	}
	return refused
}

// FuzzScreenNeverRefusesAudible holds the screen to its contract, and
// Loss and the screen to bitwise reciprocity, over fuzzed model
// constants, budgets, seeds, ids, epoch bumps and separations from
// inside MinDistance to twice MaxRange.
func FuzzScreenNeverRefusesAudible(f *testing.F) {
	urban := screenCase{ref: 47 - 20, exp: 3 - 1.5, sigma: 4, minDist: 1, budget: 112 - 60, seed: 1, a: 3, b: 900}
	add := func(c screenCase) {
		f.Add(c.ref, c.exp, c.sigma, c.minDist, c.budget, c.seed, c.a, c.b, c.ea, c.eb, c.frac, c.theta)
	}
	for k := 0; k <= 130; k += 13 { // ring edges, theta 0 so the separation is exact
		c := urban
		c.frac = float64(k) / 128
		add(c)
		c.frac = math.Nextafter(c.frac, 0)
		add(c)
	}
	inside, noShadow, zeroSeed, moved := urban, urban, urban, urban
	inside.minDist, inside.frac = 40, 0.001 // d < MinDistance
	noShadow.sigma = 0                      // no screen at all
	zeroSeed.seed = 0
	zeroSeed.frac = 0.3
	moved.ea, moved.eb, moved.frac, moved.theta = 7, 2, 0.25, 2
	for _, c := range []screenCase{inside, noShadow, zeroSeed, moved} {
		add(c)
	}
	f.Fuzz(func(t *testing.T, ref, exp, sigma, minDist, budget float64, seed uint64, a, b, ea, eb uint16, frac, theta float64) {
		checkScreen(t, screenCase{ref, exp, sigma, minDist, budget, seed, a, b, ea, eb, frac, theta})
	})
}

// TestScreenNeverRefusesAudible is the fuzzer's property over a fixed
// stream of 200 000 cases (50 000 under -short), half of them crowded
// into the distances where the screen's answer turns — enough that each
// mutant the screen was hardened against (see CHANGES.md, PR 23) fails
// here by name rather than only under -fuzz. It also fails if the
// screen stops refusing.
func TestScreenNeverRefusesAudible(t *testing.T) {
	cases := 200000
	if testing.Short() {
		cases = 50000
	}
	rng := sim.NewRNG(0x5c4ee)
	askings, refused := 0, 0
	for i := 0; i < cases; i++ {
		c := screenCase{
			ref: 100 * rng.Float64(), exp: 10 * rng.Float64(), sigma: 12 * rng.Float64(),
			minDist: 50 * rng.Float64() * float64(i%2), budget: 100 * rng.Float64(),
			seed: rng.Uint64() * uint64(i%7), // every seventh model seed is 0
			a:    uint16(rng.Intn(2000)), b: uint16(rng.Intn(2000)),
			frac: 2 * rng.Float64(), theta: 7 * rng.Float64(),
		}
		if i%2 == 0 {
			c.frac = 0.5 * rng.Float64()
		}
		if i%3 == 0 {
			c.ea, c.eb = uint16(rng.Intn(4)), uint16(rng.Intn(40))
		}
		askings += 2
		refused += checkScreen(t, c)
	}
	if refused < askings/2 {
		t.Fatalf("%d of %d askings refused — the screen is barely screening", refused, askings)
	}
	t.Logf("%d of %d askings refused", refused, askings)
}
