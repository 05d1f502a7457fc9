package radio

import (
	"math"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/sim"
)

// The dB conversions below cost a Pow or Log10 each, so the simulation
// hot path avoids them per segment: phy radios fold every dB-domain
// constant into linear multipliers at construction (phy tables.go) and
// keep per-pair gains in mW end to end. These helpers are for
// construction, cold paths, and human-facing output.

// DBmToMW converts dBm to milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MWToDBm converts milliwatts to dBm. Zero or negative power maps to -inf.
func MWToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Model computes the path loss in dB between two placed nodes.
//
// A model with a range bound (RangeBounder, at a finite positive
// distance) must be reciprocal to the bit: Loss(a, pa, b, pb) and
// Loss(b, pb, a, pa) are the same float64, and if it is a Screener so
// are the two directions' Inaudible answers. The medium relies on it:
// construction evaluates each unordered pair of such a model once and
// writes the link into both endpoints' rows. A model without one need
// not be reciprocal — Matrix is a per-direction table, and asymmetric
// fixtures are how the tests pin one-way sensing — and construction
// evaluates its every ordered pair.
type Model interface {
	// Loss returns the propagation loss in dB from node a at pa to node b
	// at pb. Node IDs participate only through the shadowing hash.
	Loss(a int, pa geo.Point, b int, pb geo.Point) float64
}

// RangeBounder is implemented by geometric models that can bound the
// distance beyond which Loss provably exceeds a given budget for every
// node pair. The medium uses it to prune its delivery lists with a
// spatial grid: a pair farther apart than MaxRange(budget) can never be
// heard above the corresponding power floor, so the bound must be
// conservative — never smaller than the true cutoff. Implementing it
// also promises bitwise reciprocity (see Model). Models without
// geometry (e.g. Matrix) simply do not implement it.
type RangeBounder interface {
	MaxRange(maxLossDB float64) float64
}

// Screener is implemented by shadowed models that can often prove a
// pair out of earshot far more cheaply than Loss can say by how much.
// MaxRange has to budget for the most favourable shadowing draw there
// is, so most of the candidates a spatial grid hands back are decibels
// past the budget at the draw they actually got; a screen tells from
// the first uniform of the pair's shadowing stream, before any
// logarithm. It is one-sided: Inaudible may return true only when
// Loss(a, pa, b, pb) > maxLossDB in the very floats Loss computes, and
// false promises nothing — the caller then evaluates Loss as if there
// were no screen, which is why screened and unscreened delivery lists
// are the same bits. Like the Loss of a range-bounded model it must be
// reciprocal to the bit. Models without shadowing do not implement it.
type Screener interface {
	// Screen returns the table for a loss budget, or nil when this
	// model has nothing to screen by (no shadowing, no range bound).
	Screen(maxLossDB float64) *Screen
	// Inaudible reports whether the pair's loss provably exceeds the
	// budget s was made for. s must come from this model's Screen.
	Inaudible(s *Screen, a int, pa geo.Point, b int, pb geo.Point) bool
}

// MaxShadowSigmas truncates the shadowing variate. Lognormal shadowing
// is an empirical fit whose far tails are unphysical (±6σ of a 6 dB
// spread is already ±36 dB — more than any wall); truncating there
// changes essentially no realised link (P ≈ 2·10⁻⁹ per pair) but gives
// MaxRange a tight bound, which is what lets the spatial grid prune
// medium construction.
const MaxShadowSigmas = 6.0

// LogDistance is the classic indoor log-distance path-loss model with
// per-link lognormal shadowing:
//
//	PL(d) = RefLossDB + 10·Exponent·log10(d/1 m) + N(0, ShadowSigmaDB)
//
// The shadowing draw is a pure function of (Seed, min(a,b), max(a,b)), so
// the channel between two nodes is symmetric and stable across runs.
type LogDistance struct {
	// RefLossDB is the loss at the 1 m reference distance. Free space at
	// 5.2 GHz gives ≈46.8 dB; the calibrated testbed uses more to account
	// for antenna inefficiency and near-field clutter of embedded boards.
	RefLossDB float64
	// Exponent is the path-loss exponent; indoor office ≈3.0–3.5.
	Exponent float64
	// ShadowSigmaDB is the standard deviation of lognormal shadowing.
	ShadowSigmaDB float64
	// MinDistance clamps very small separations so co-located nodes do not
	// produce unbounded power. Defaults to 1 m when zero.
	MinDistance float64
	// Seed selects the shadowing realisation.
	Seed uint64

	// screen memoises the last table Screen built. Experiments build
	// hundreds of media over one shared model, so the table is paid for
	// once per model rather than once per medium; it is keyed on the
	// constants it was built from, so editing a field just rebuilds it.
	screen atomic.Pointer[Screen]
}

// DefaultIndoor5GHz returns the calibrated model used for the reproduction
// testbed: 5 GHz office floor matching the §5.1 link census.
func DefaultIndoor5GHz(seed uint64) *LogDistance {
	return &LogDistance{
		RefLossDB:     56.0,
		Exponent:      3.5,
		ShadowSigmaDB: 6.0,
		MinDistance:   1.0,
		Seed:          seed,
	}
}

// DefaultUrban5GHz returns an outdoor model for the large-scale scenario
// generators: near-free-space reference loss, a gentler exponent than the
// cluttered office floor, and milder shadowing. Ranges run a few hundred
// metres, so city-scale layouts are sparse in the delivery sense.
func DefaultUrban5GHz(seed uint64) *LogDistance {
	return &LogDistance{
		RefLossDB:     47.0,
		Exponent:      3.0,
		ShadowSigmaDB: 4.0,
		MinDistance:   1.0,
		Seed:          seed,
	}
}

// Loss implements Model.
func (m *LogDistance) Loss(a int, pa geo.Point, b int, pb geo.Point) float64 {
	return m.LossSeeded(m.Seed, a, pa, b, pb)
}

// LossSeeded is Loss with the shadowing realisation chosen by seed
// instead of m.Seed: the hook mobility.Channel re-draws a pair's
// shadowing through without copying the model.
func (m *LogDistance) LossSeeded(seed uint64, a int, pa geo.Point, b int, pb geo.Point) float64 {
	loss := m.meanLoss(pa.Dist(pb))
	if m.ShadowSigmaDB > 0 {
		loss += m.ShadowSigmaDB * shadow(seed, a, b)
	}
	return loss
}

// meanLoss is the unshadowed loss at distance d.
func (m *LogDistance) meanLoss(d float64) float64 {
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d)
}

// MaxRange implements RangeBounder: beyond the returned distance, path
// loss exceeds maxLossDB even at the most favourable shadowing draw the
// generator can produce.
func (m *LogDistance) MaxRange(maxLossDB float64) float64 {
	if m.Exponent <= 0 {
		return math.Inf(1)
	}
	d := math.Pow(10, (maxLossDB-m.RefLossDB+MaxShadowSigmas*m.ShadowSigmaDB)/(10*m.Exponent))
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		// Inside the clamp every pair shares loss(min); if that already
		// exceeds the budget nothing delivers, but min stays a safe bound.
		d = min
	}
	return d * (1 + 1e-9)
}

// pairStream seeds the shadowing stream of the unordered pair (a, b)
// under seed. shadow and the screen both draw from sim.NewRNG of it,
// which is what lets the screen reason about the first uniform shadow
// will see.
func pairStream(seed uint64, a, b int) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return sim.HashPair(uint64(lo)+1, uint64(hi)+1) ^ seed
}

// shadow returns a standard normal variate truncated to ±MaxShadowSigmas
// that is symmetric in (a, b) and deterministic in the seed.
func shadow(seed uint64, a, b int) float64 {
	v := sim.NewRNG(pairStream(seed, a, b)).NormFloat64()
	if v > MaxShadowSigmas {
		v = MaxShadowSigmas
	} else if v < -MaxShadowSigmas {
		v = -MaxShadowSigmas
	}
	return v
}

// FreeSpace is a shadowing-free model useful for unit tests and
// controlled geometry experiments.
type FreeSpace struct {
	RefLossDB   float64 // loss at 1 m
	Exponent    float64 // usually 2.0
	MinDistance float64
}

// Loss implements Model.
func (m *FreeSpace) Loss(_ int, pa geo.Point, _ int, pb geo.Point) float64 {
	d := pa.Dist(pb)
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d)
}

// MaxRange implements RangeBounder exactly (no shadowing).
func (m *FreeSpace) MaxRange(maxLossDB float64) float64 {
	if m.Exponent <= 0 {
		return math.Inf(1)
	}
	d := math.Pow(10, (maxLossDB-m.RefLossDB)/(10*m.Exponent))
	min := m.MinDistance
	if min <= 0 {
		min = 1.0
	}
	if d < min {
		d = min
	}
	return d * (1 + 1e-9)
}

// Matrix is a model backed by an explicit loss table; it lets tests and
// experiments construct exact SINR relationships between a handful of
// nodes without reverse-engineering geometry.
type Matrix struct {
	// LossDB[a][b] is the loss from a to b in dB; Loss reads it
	// directly. It may be asymmetric: a Matrix has no range bound, so
	// the medium builds its rows per ordered pair, each direction from
	// its own entry.
	LossDB [][]float64
}

// Loss implements Model.
func (m *Matrix) Loss(a int, _ geo.Point, b int, _ geo.Point) float64 {
	return m.LossDB[a][b]
}

// SINR returns the signal-to-interference-plus-noise ratio in dB given all
// powers in mW.
func SINR(signalMW, noiseMW, interferenceMW float64) float64 {
	return DB(signalMW / (noiseMW + interferenceMW))
}
