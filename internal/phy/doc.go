// Package phy models the 802.11a OFDM physical layer: the eight
// bit-rates with their modulation and coding, frame airtime, analytic
// BER→PER curves as a function of SINR, and a half-duplex transceiver
// state machine with preamble locking, segment-wise interference
// accounting, and capture.
//
// # Relation to the paper
//
// CMAP's premise is that reception is probabilistic and
// interference-dependent, not binary (§2): whether a concurrent
// transmission destroys a packet depends on SINR at the receiver, and
// headers/trailers survive collisions their data packets do not
// (Figure 3, §3.5). The Radio reproduces exactly that: each incoming
// frame is split into segments by the set of overlapping interferers,
// each segment contributes a bit-error probability from the
// modulation's BER curve at its SINR, and preamble capture lets a
// sufficiently stronger late arrival steal the receiver (§4.2's
// prototype behaviour). The §5.8 variable-bit-rate results fall out of
// the per-modulation curves.
//
// # The fast reception path
//
// The hot path never touches the dB domain or a transcendental: the
// receiver constants and the capture margin are folded into
// package-level linear multipliers once, and the Erfc-based
// BER/lock curves are replaced by monotone piecewise-linear tables over
// bit-pattern quantized linear Eb/N0 (tables.go). The exact formulas remain
// exported as the reference; Params.ExactReceptionMath routes radios
// through them for A/B validation, and property tests bound the table
// error. See ARCHITECTURE.md, "The reception compute path".
//
// # Who a radio hears
//
// A radio is delivered frames only once a station listens on it: the
// first handler given to SetHandler makes the radio tell its channel
// (Channel.Attend), and the channel's fan-out leaves out every radio
// that never did. Such a radio transmits nothing, draws from its own
// RNG stream and has nobody to make an upcall to, so what it would have
// heard can reach no result; its RadioStats stay at zero apart from
// frames that started in an instant in which a station attached. See
// ARCHITECTURE.md, "Who hears a frame".
//
// # The interference path
//
// Most of what a radio hears is below its sensitivity: it can neither
// lock onto it nor be captured by it, and it matters only as power in
// the SINR denominator and the carrier-sense sum. The medium's fan-out
// enters through Arrive/Depart, which send such arrivals down a path
// that moves totalMW, closes a locked reception's running segment and
// updates carrier sense, and keeps only a count of them — no active-set
// entry, no lookup on the way out. SignalStart/SignalEnd are the full
// path and, called directly, the one-tier reference
// FuzzInterferencePath holds the pair to, bit for bit. See
// ARCHITECTURE.md, "The transmit hot path".
package phy
