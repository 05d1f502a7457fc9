// Package radio models RF propagation: power unit conversions, a
// log-distance path-loss model with deterministic per-link shadowing,
// and SINR arithmetic.
//
// # Relation to the paper
//
// The paper runs on a real 802.11a testbed whose links exhibit the full
// indoor spread — 68% of node pairs below 10% delivery, 20% perfect
// (§5.1). The calibrated indoor model here (DefaultIndoor5GHz) is tuned
// so the generated testbed reproduces that census. Shadowing is a
// truncated lognormal derived from a hash of the node pair: reciprocal
// (a→b equals b→a), frozen for a topology's lifetime (walls do not
// move), and reproducible from the seed. Urban outdoor variants back
// the large-scale scenarios beyond the paper.
//
// # Hot-path contract
//
// The dB conversions here cost a Pow or Log10 each, so the simulation
// hot path avoids them per segment: phy radios fold every dB-domain
// constant into linear multipliers at construction and keep per-pair
// gains in mW end to end. Models that implement RangeBounder let the
// sparse medium bound audibility and skip the O(n²) pair scan.
//
// That bound must allow for the most favourable shadowing draw, so most
// of the pairs inside it are still out of earshot. A Screener proves
// that of a pair from the first uniform of its shadowing stream and a
// table lookup (screen.go has the inequality and what keeps it exact):
// a fifth of the cost of Loss, no logarithm, and never wrong in the
// direction that matters, so a caller that evaluates Loss on whatever
// the screen lets through computes exactly what it would have without
// one. LogDistance implements it; FreeSpace and Matrix have no
// shadowing to screen by.
package radio
