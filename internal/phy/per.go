package phy

import (
	"math"

	"repro/internal/radio"
)

// channelBandwidthMHz is the 802.11a channel bandwidth used to convert
// SINR to per-bit Eb/N0.
const channelBandwidthMHz = 20.0

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// BitErrorRate returns the post-decoding bit error probability at the
// given SINR (dB) for rate r. The model is the textbook AWGN chain:
// SINR → Eb/N0 (bandwidth/bit-rate conversion), an effective Viterbi
// coding gain per code rate, and the Gray-coded modulation BER formula.
// Implementation loss (ImplementationLossDB) is applied by the caller.
//
// This is the exact (Erfc-based) reference path. Radios on the hot path
// use the precomputed tables of tables.go instead, which are built from
// this function and validated against it by a bounded-error property
// test.
func BitErrorRate(r Rate, sinrDB float64) float64 {
	if math.IsInf(sinrDB, -1) {
		return 0.5
	}
	ebn0DB := sinrDB + 10*math.Log10(channelBandwidthMHz/r.Mbps) + r.codingGainDB
	return berLinear(r.Mod, radio.FromDB(ebn0DB))
}

// berLinear is the Gray-coded modulation BER formula over linear
// effective Eb/N0 (bandwidth conversion, coding gain and implementation
// loss already applied by the caller).
func berLinear(mod Modulation, g float64) float64 {
	var ber float64
	switch mod {
	case BPSK, QPSK:
		ber = qfunc(math.Sqrt(2 * g))
	case QAM16:
		// (4/k)(1-1/sqrt(M)) Q(sqrt(3k/(M-1) Eb/N0)), k=4, M=16.
		ber = 0.75 * qfunc(math.Sqrt(0.8*g))
	case QAM64:
		// k=6, M=64.
		ber = (7.0 / 12.0) * qfunc(math.Sqrt((18.0/63.0)*g))
	default:
		ber = 0.5
	}
	if ber > 0.5 {
		ber = 0.5
	}
	return ber
}

// PacketErrorRate returns the probability that a frame of wireBytes at
// rate r is corrupted at constant SINR (dB).
func PacketErrorRate(r Rate, sinrDB float64, wireBytes int) float64 {
	ber := BitErrorRate(r, sinrDB)
	if ber <= 0 {
		return 0
	}
	if ber >= 0.5 {
		return 1
	}
	bits := float64(PayloadBits(wireBytes))
	return 1 - math.Exp(bits*math.Log1p(-ber))
}

// logSuccess returns ln P(all bits survive) for bits at the given BER.
// It is the accumulator used by segment-wise reception.
func logSuccess(ber float64, bits float64) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 0.5 {
		return math.Inf(-1)
	}
	return bits * math.Log1p(-ber)
}

// preambleEquivalentBytes sizes the BPSK block whose decode probability
// models PLCP preamble+SIGNAL acquisition. The preamble correlator is
// more robust than long data frames, so its waterfall sits a few dB below
// the 6 Mb/s data curve.
const preambleEquivalentBytes = 32

// LockProbability returns the probability that the preamble correlator
// acquires a frame arriving at the given effective SINR in dB
// (implementation loss already applied). The preamble is always
// BPSK-coded regardless of the data rate.
func LockProbability(sinrDB float64) float64 {
	return 1 - PacketErrorRate(rateTable[Rate6Mbps], sinrDB, preambleEquivalentBytes)
}
