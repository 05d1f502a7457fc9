package phy

import "math"

// The reception hot path — closeSegment, tryLock, tryCapture — runs
// once per SINR segment at every locked receiver, which at 1000-node
// saturation makes it one of the hottest loops in the simulator. The
// exact formulas (per.go) cost an Erfc, a Sqrt and a Log1p per call,
// plus the Pow/Log10 round trip of the dB conversions. This file
// replaces them with monotone piecewise-linear tables over quantized
// *linear* effective Eb/N0, built once at package init from the exact
// formulas:
//
//   - berTables[mod] holds ln P(bit survives) = log1p(-BER) per
//     modulation; segment accounting multiplies it by the segment's bit
//     count, so no per-segment transcendental remains.
//   - lockTable holds the preamble acquisition probability (the BPSK
//     32-byte-block decode probability LockProbability computes), so a
//     lock attempt is a table lookup compared against one RNG draw.
//
// Quantization reads the float64 bit pattern directly: the exponent
// field selects the octave, the top mantissa bits the sub-bin, and the
// remaining mantissa bits the interpolation fraction — no Log, no
// branch mispredictions, and (being piecewise-linear in the mantissa)
// linear interpolation in g itself, which is the axis along which
// log-BER flattens to a straight line in the high-SNR tail.
//
// Tables are indexed by effective Eb/N0 with every dB-domain constant
// (implementation loss, bandwidth-per-bit-rate conversion, coding gain)
// and the capture margin folded into package-level linear multipliers;
// see ebn0K, lockK and captureK in radio.go.

const (
	// tableMinExp/tableMaxExp bound the tables' linear Eb/N0 domain at
	// 2^-14 (≈ -42 dB, far below any decodable signal: BER is within
	// 0.005 of its g→0 limit) and 2^12 (≈ +36 dB, where even the QAM-64
	// BER underflows any per-frame effect). Outside the range the
	// lookups clamp.
	tableMinExp = -14
	tableMaxExp = 12
	// tableSubBits gives 2^6 = 64 sub-bins per octave (≈ 0.05 dB node
	// spacing), which bounds the interpolation error of the property
	// test (relative BER error well under 1% anywhere the BER is large
	// enough to matter) with a ~66 KB total footprint.
	tableSubBits = 6
	tableBins    = (tableMaxExp - tableMinExp) << tableSubBits
)

var (
	tableGMin = math.Ldexp(1, tableMinExp)
	tableGMax = math.Ldexp(1, tableMaxExp)
)

// berTables[mod][i] is log1p(-berLinear(mod, tableNode(i))): the
// natural-log per-bit survival probability at the bin's node point.
// Rates share tables per modulation because the coding gain is folded
// into the caller's multiplier, not the table axis.
var berTables [4][tableBins + 1]float64

// lockTable[i] is the preamble acquisition probability at the bin's
// node point: exp(preambleBits · log1p(-berLinear(BPSK, g))), exactly
// what LockProbability computes after its dB conversions.
var lockTable [tableBins + 1]float64

// tableNode returns the linear Eb/N0 at bin boundary i.
func tableNode(i int) float64 {
	exp := tableMinExp + i>>tableSubBits
	sub := i & (1<<tableSubBits - 1)
	return math.Ldexp(1+float64(sub)/(1<<tableSubBits), exp)
}

func init() {
	preambleBits := float64(PayloadBits(preambleEquivalentBytes))
	for i := 0; i <= tableBins; i++ {
		g := tableNode(i)
		for mod := BPSK; mod <= QAM64; mod++ {
			berTables[mod][i] = math.Log1p(-berLinear(mod, g))
		}
		lockTable[i] = math.Exp(preambleBits * berTables[BPSK][i])
	}
}

// tableIndex splits g ∈ [tableGMin, tableGMax) into a bin index and the
// linear interpolation fraction within the bin, straight from the IEEE
// 754 bit pattern. Within one sub-bin the mantissa fraction IS the
// position in g, so interpolating on it is linear interpolation in g.
func tableIndex(g float64) (int, float64) {
	const (
		fracBits = 52 - tableSubBits
		fracMask = 1<<fracBits - 1
		idxBias  = (1023 + tableMinExp) << tableSubBits
	)
	bits := math.Float64bits(g)
	idx := int(bits>>fracBits) - idxBias
	frac := float64(bits&fracMask) * (1.0 / (1 << fracBits))
	return idx, frac
}

// lnBitSuccess returns log1p(-BER) at linear effective Eb/N0 g for the
// given modulation, by table interpolation. Transcendental-free.
func lnBitSuccess(mod Modulation, g float64) float64 {
	if g >= tableGMax {
		return 0 // BER underflows any per-frame effect
	}
	t := &berTables[mod]
	if g <= tableGMin {
		return t[0]
	}
	i, frac := tableIndex(g)
	a := t[i]
	return a + (t[i+1]-a)*frac
}

// lockProbLinear returns the preamble acquisition probability at linear
// preamble Eb/N0 g, by table interpolation. Transcendental-free.
func lockProbLinear(g float64) float64 {
	if g >= tableGMax {
		return 1
	}
	if g <= tableGMin {
		return lockTable[0]
	}
	i, frac := tableIndex(g)
	a := lockTable[i]
	return a + (lockTable[i+1]-a)*frac
}
