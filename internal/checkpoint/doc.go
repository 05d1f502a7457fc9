// Package checkpoint owns the on-disk format of simulation checkpoints
// and resumable campaign manifests: a versioned, self-describing JSON
// envelope whose payload integrity is guarded by a SHA-256 digest and
// whose applicability is guarded by a hash of the producing
// configuration. The simulation state itself is opaque here — each
// layer stores its live state struct as it is (internal/sim, phy,
// medium, csma, core, traffic, mobility, stats) and the
// experiment harness stitches the pieces; this package guarantees that
// a resumed process either gets back exactly the bytes that were saved,
// for the same configuration, or a typed error saying precisely how the
// checkpoint is unusable. It also holds what the layers share: the
// Component interface the harness drives stations, sources and the
// mobility manager through, and the Map and Set types that give
// struct-keyed tables and sequence sets a deterministic encoding.
//
// The package has no dependencies on the rest of the repository so any
// layer — the harness, the CLIs, the tests — can import it freely.
package checkpoint
