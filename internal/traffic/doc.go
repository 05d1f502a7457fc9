// Package traffic supplies pluggable workload models for the simulated
// link layers, opening the offered-load axis the paper's evaluation
// holds fixed.
//
// # Relation to the paper
//
// The CMAP evaluation (§5) drives every sender fully backlogged — the
// saturated regime, where the exposed-terminal gain is largest and
// easiest to isolate. How the CMAP-versus-carrier-sense tradeoff behaves
// below saturation is exactly what the follow-on literature
// characterises (van de Ven et al., "Optimal Tradeoff Between Exposed
// and Hidden Nodes in Large Wireless Networks"; Sun et al., "Throughput
// Characterization of Wireless CSMA Networks With Arbitrary Sensing and
// Interference Topologies"): at low load, deferring costs little; the
// gain from harnessing exposed terminals turns on as load approaches
// saturation. This package makes those unsaturated regimes simulable.
//
// # The models
//
// A Spec names an arrival process per flow: Saturated (the paper's
// model and the zero value, so existing experiments are untouched), CBR
// (deterministic spacing), Poisson (exponential inter-arrivals), and
// bursty OnOff (exponential ON/OFF phases, CBR inside a burst). Any
// kind can additionally churn — alternate between live sessions and
// silent gaps — modelling flows that arrive and depart over a run, the
// building block of many-user scenarios. A Source binds a Spec to the
// transmit queue of a link-layer node (the Enqueuer interface, which
// both core.Node and csma.Node satisfy), enforces a finite per-flow
// backlog (DefaultQueueCap; tail drops are counted), and drives
// everything from scheduler timers.
//
// # Determinism and the zero-allocation arrival path
//
// Each Source draws from its own sim.RNG stream, so workloads are a
// pure function of the trial seed and results are bit-identical at any
// worker count, like every other randomness consumer in the repo.
// Arrival processing rides the same machinery as the transmit hot path:
// value-embedded timers re-armed through Scheduler.ResetAfter and
// small-integer event kinds through the EventHandler interface, so a
// steady-state arrival (timer fire → backlog check → Enqueue → next
// draw) performs zero heap allocations — enforced by
// TestArrivalPathZeroAllocs.
//
// # Latency
//
// With EnableLatency, a Source records each accepted packet's arrival
// time in a fixed ring indexed by the flow's link-layer sequence
// number (the k-th accepted packet becomes sequence k in both MACs), so
// a receiver-side delivery callback can compute per-packet queueing +
// channel delay without any per-packet allocation; stats.Latency turns
// those samples into warm-up-truncated p50/p95/p99.
package traffic
