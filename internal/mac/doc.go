// Package mac is the registration seam between MAC protocol arms and
// everything that runs them. An arm (CSMA, CMAP, RTS/CTS, the
// carrier-sense-threshold family) registers an Arm — a name, a paper
// label, a pinned seed salt and a constructor — from its package's
// init; experiments, the command-line tools, the root façade and the
// conformance suite resolve arms through Lookup, the one place an arm
// name or spec (cmap:win=2) is parsed, and drive the resulting stations
// through the Node interface. The seam is what lets every pair figure,
// the offered-load sweep and the analytic screen take an arbitrary
// -arms= subset, and what the internal/mac/conformance harness
// enumerates so each new arm inherits the full verification story
// (allocation gate, worker-count determinism, backlog conservation)
// instead of re-deriving it.
package mac
