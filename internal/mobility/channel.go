package mobility

import (
	"math"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Channel wraps a radio model to give per-pair shadowing a time axis.
// Each node carries a shadowing epoch counter; the Manager bumps it
// every DecorrM metres of travel. A pair's shadowing is re-drawn by
// mixing both endpoints' epochs into the inner LogDistance seed, so it
// stays deterministic (a pure function of seed, pair, and epochs),
// reciprocal (epochs are combined in node-id order), and bounded by the
// same ±MaxShadowSigmas truncation MaxRange already budgets for. While
// both epochs are zero the pair keeps the inner model's own seed, so a
// wrapped static run is bit-identical to an unwrapped one. Inner models
// without shadowing (FreeSpace, Matrix) pass through unchanged. The
// inner model's shadowing screen is forwarded under the same per-pair
// seed, so it speaks of the realisation Loss evaluates at every epoch
// pair.
//
// A Channel belongs to one run: the Manager bumps epochs only inside an
// epoch step, before the same step's batch marks the delivery rows
// stale, so a row rebuilt at any event reads the model as that epoch
// left it.
type Channel struct {
	inner radio.Model
	// shadowed is inner when it is a LogDistance with shadowing to
	// re-draw, nil otherwise.
	shadowed *radio.LogDistance
	epochs   []uint32
}

// NewChannel wraps inner for n nodes, all epochs zero.
func NewChannel(inner radio.Model, n int) *Channel {
	c := &Channel{inner: inner, epochs: make([]uint32, n)}
	if ld, ok := inner.(*radio.LogDistance); ok && ld.ShadowSigmaDB > 0 {
		c.shadowed = ld
	}
	return c
}

// Bump advances node i's shadowing epoch.
func (c *Channel) Bump(i int) { c.epochs[i]++ }

// Epoch returns node i's shadowing epoch.
func (c *Channel) Epoch(i int) uint32 { return c.epochs[i] }

// SetEpochs overwrites all shadowing epochs (checkpoint restore).
func (c *Channel) SetEpochs(e []uint32) {
	copy(c.epochs, e)
	for i := len(e); i < len(c.epochs); i++ {
		c.epochs[i] = 0
	}
}

// pairSeed returns the shadowing seed of pair (a, b) at its current
// epochs: the model's own while both are zero, otherwise the model's
// with the epochs mixed in, in node-id order so that both directions of
// the pair agree.
func (c *Channel) pairSeed(a, b int) uint64 {
	ea, eb := c.epochs[a], c.epochs[b]
	if ea == 0 && eb == 0 {
		return c.shadowed.Seed
	}
	elo, ehi := ea, eb
	if b < a {
		elo, ehi = eb, ea
	}
	return c.shadowed.Seed ^ sim.HashPair(uint64(elo)+1, uint64(ehi)+1)
}

// Loss implements radio.Model.
func (c *Channel) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	if c.shadowed == nil {
		return c.inner.Loss(a, pa, b, pb)
	}
	return c.shadowed.LossSeeded(c.pairSeed(a, b), a, pa, b, pb)
}

// Screen implements radio.Screener with the inner model's table, which
// holds no seed and so serves every epoch pair; nil when the inner
// model has no shadowing to screen by.
func (c *Channel) Screen(maxLossDB float64) *radio.Screen {
	if c.shadowed == nil {
		return nil
	}
	return c.shadowed.Screen(maxLossDB)
}

// Inaudible implements radio.Screener under the pair's current epochs,
// the realisation Loss would evaluate.
func (c *Channel) Inaudible(s *radio.Screen, a int, pa geo.Point, b int, pb geo.Point) bool {
	return s.InaudibleSeeded(c.pairSeed(a, b), a, pa, b, pb)
}

// MaxRange implements radio.RangeBounder by forwarding to the inner
// model; re-drawn shadowing has the same truncated distribution, so the
// inner headroom bound still holds. An inner model without a bound
// yields +Inf, so the medium's grid queries span every node — exactly the
// treatment the unwrapped model would get.
func (c *Channel) MaxRange(maxLossDB float64) float64 {
	if rb, ok := c.inner.(radio.RangeBounder); ok {
		return rb.MaxRange(maxLossDB)
	}
	return math.Inf(1)
}
