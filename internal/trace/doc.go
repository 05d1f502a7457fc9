// Package trace records structured per-node link-layer events — frame
// receptions, corruptions, transmissions, carrier edges — into a
// bounded ring buffer and renders them as a readable timeline.
//
// # Relation to the paper
//
// Debugging a reactive MAC means reconstructing who heard what, when —
// the §4 prototype work the paper describes doing with packet captures.
// The tracer is this reproduction's equivalent: it decorates any
// phy.Handler, so CMAP nodes, DCF nodes, and bare radios can all be
// traced without touching their code:
//
//	tracer := trace.New(512)
//	node := mac.MustLookup("cmap").New(3, m, rng, mac.Options{Rate: phy.Rate6Mbps})
//	m.Radio(3).SetHandler(tracer.Wrap(3, node.(phy.Handler), m.Scheduler()))
//
// experiments.FlowSim.Trace does this for flow 0's endpoints under any
// registered arm, and cmd/cmapsim's -trace flag is its CLI. The tracer
// is simulation-grade (no locking): the kernel is single threaded by
// design.
package trace
