package phy

// The receiver constants of the one kind of card the testbed uses
// everywhere (§4–5): a commodity 5 GHz 802.11a card of the testbed era
// (Atheros AR5212 class). Every radio and the analytic oracle read the
// same values.
const (
	// NoiseFloorDBm is thermal noise plus receiver noise figure over the
	// 20 MHz channel.
	NoiseFloorDBm = -94.0
	// SensitivityDBm is the minimum received power at which a preamble
	// can be detected at all.
	SensitivityDBm = -92.0
	// CSThresholdDBm is the carrier-sense threshold: the channel appears
	// busy when total received power exceeds it. Most 802.11 chipsets use
	// preamble detection for carrier sense (the paper's footnote 1),
	// which tracks receiver sensitivity — any decodable same-technology
	// signal shows the channel busy.
	CSThresholdDBm = -90.0
	// ImplementationLossDB derates the analytic BER curves to hardware
	// reality (filter mismatch, phase noise, channel estimation error).
	ImplementationLossDB = 5.0
	// CaptureMarginDB is the extra SINR a newly arriving frame needs —
	// beyond ordinary preamble acquisition — to capture the receiver away
	// from an already-locked weaker frame (OFDM sync restart, the
	// "capture effect" of the paper's refs [18, 20]). Commodity
	// Atheros-class hardware restarts around 10 dB.
	CaptureMarginDB = 10.0
)

// Params collects the transceiver settings shared by every radio in a
// simulation. DefaultParams holds the calibrated values.
type Params struct {
	// TxPowerDBm is the common transmit power (the paper assumes one
	// power level network-wide, footnote 2).
	TxPowerDBm float64
	// DeliveryFloorDBm bounds medium fan-out: signals arriving below this
	// power are ignored entirely (they are far below noise).
	DeliveryFloorDBm float64
	// ExactReceptionMath routes the per-segment reception math through
	// the exact transcendental formulas (Erfc-based BER, dB-domain SINR)
	// instead of the precomputed linear-domain tables. Decode outcomes
	// are statistically indistinguishable either way (the tables carry a
	// bounded-error guarantee); the exact path is retained as the
	// reference implementation and for A/B validation, and is several
	// times slower per segment.
	ExactReceptionMath bool
}

// DefaultParams returns the calibrated transceiver settings used for the
// reproduction testbed.
func DefaultParams() Params {
	return Params{
		TxPowerDBm:       10,
		DeliveryFloorDBm: -108,
	}
}

// IsolationPRR returns the analytic packet reception ratio of a frame of
// wireBytes at rate r received at rxPowerDBm with no interference. It is
// the quantity the paper measures "transmitting in isolation" (§5.1) to
// classify links.
func IsolationPRR(r Rate, rxPowerDBm float64, wireBytes int) float64 {
	if rxPowerDBm < SensitivityDBm {
		return 0
	}
	sinr := rxPowerDBm - NoiseFloorDBm - ImplementationLossDB
	return LockProbability(sinr) * (1 - PacketErrorRate(r, sinr, wireBytes))
}
