// Package sim provides the deterministic discrete-event simulation
// kernel every other package runs on: a virtual clock with nanosecond
// resolution, a cancellable event agenda, and seeded random-number
// streams.
//
// # Relation to the paper
//
// The kernel implements no CMAP mechanism itself; it is the substrate
// that makes the §5 evaluation reproducible. The paper's methodology
// compares protocol arms on identical channel realisations (§5.1) —
// here that becomes a hard guarantee: every run is a pure function of
// its seed, because (a) events fire in total (deadline, scheduling
// sequence) order on a single goroutine, and (b) every randomness
// consumer draws from its own RNG stream derived from (seed, label), so
// adding one never perturbs another.
//
// # Design
//
// The agenda indexes the next event by time instead of searching for it:
// events live once in a slab; the near horizon (4.19 ms, which takes in
// 99 % of what a saturated network schedules — slots, SIFS, frame
// airtimes) is a ring of 1024 buckets of 4.096 µs found through an
// occupancy bitmap; anything later waits in a small binary heap of slab
// indices and is admitted to the ring as firing events advance the
// window. Pop order is exactly the (deadline, sequence) total order,
// whatever the layout — see the comment above Scheduler in sim.go for
// the window invariant that guarantees it.
//
// Scheduling is four calls. Post/PostAfter is the fire-and-forget path
// used by per-frame traffic; ResetAt/ResetAfter arm a caller-owned
// Timer, which names its event by slab index and sequence number.
// Sequence numbers are never reused, so a handle whose event fired or
// was stopped never reaches the event that reuses its slab entry, and
// no cancellation table is kept. Components embed their Timer values,
// so per-frame timers (DIFS, backoff, ACK wait, traffic arrivals)
// allocate nothing in steady state. Events dispatch through the
// EventHandler interface with a pointer-shaped arg instead of closures;
// together these make the schedule→fire cycle allocation-free, the
// property the transmit (internal/medium) and arrival (internal/traffic)
// hot paths are gated on, and make every event checkpointable.
package sim
