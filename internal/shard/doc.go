// Package shard is the conservative parallel discrete-event engine: it
// partitions one large simulation spatially across shards, each with
// its own event loop, scheduler and RNG streams, running on its own
// goroutine.
//
// The serial engine (internal/medium driving one sim.Scheduler) stays
// untouched as the reference, the same pattern as NewDense versus the
// grid-pruned construction. The sharded engine reproduces it exactly at
// Shards=1 — bit-identical event sequences, proven by test — and at
// Shards>1 trades bit-level for figure-level equivalence: cross-shard
// signals arrive one lookahead window late, which perturbs interference
// overlap at shard borders but preserves every per-frame airtime and
// decode computation.
//
// # Why a synthetic lookahead window
//
// Classic conservative PDES advances a partition while its clock is
// below the earliest time a neighbour could affect it. This simulation
// has zero propagation delay — a transmission is audible everywhere on
// its delivery list in the same instant — so the natural lookahead is
// zero and a pure conservative engine deadlocks. The engine therefore
// introduces a cross-shard latency W (the constant window = phy.DIFS):
// a transmission starting at t reaches remote shards at t+W and ends at
// end+W. Signal duration — and with it airtime, the SINR integration
// and the decode probability of every frame — is preserved exactly;
// only the relative phase of border interference shifts, which is the
// deviation the figure-level equivalence test bounds.
//
// # Synchronization
//
// Time is cut into windows of width W aligned to absolute multiples of
// W. Within window k every shard runs its own agenda freely, appending
// cross-shard handoffs (marshalled frame plus on-air interval) to
// double-buffered per-destination outboxes under parity k mod 2. One
// barrier per window separates execution from exchange: after it, every
// shard drains the opposite-parity outboxes of all peers in ascending
// shard order and posts the arrivals into its own agenda at t+W — never
// in its past, because t > (k-1)·W implies t+W > k·W, the drain time.
// The barrier order also makes the parity buffers race-free: a buffer
// is only written again two windows after it was last read.
//
// # Who hears a frame
//
// As on the serial medium, a frame is delivered only to radios a
// station listens on (Shard.Attend, called by Radio.SetHandler), plus
// every radio in range when it is marked Transmission.All. Stations
// attach while the engine is wired, before the first Run: the attended
// set is then read-only shared state, and a foreign shard in which
// nobody listens to a sender gets no handoff from it — no marshalled
// frame, no remote event pair.
//
// # Determinism and flow placement
//
// For a fixed shard count the engine is deterministic: every shard's
// agenda is single-threaded, drains happen in a canonical order, and
// TxIDs interleave by shard (local sequence × S + shard index), which
// collapses to the serial assignment at S=1. Node RNG streams are the
// serial engine's streams verbatim, so no randomness moves when the
// shard count changes.
//
// Flows must be co-sharded: the DCF ACK timeout has only a couple of
// slot times of slack, so a stop-and-wait exchange crossing a border
// would pay 2W of synthetic latency and time out. Partition therefore
// unions flow endpoints (union-find, group takes the shard of its
// lowest-numbered member) on top of the population-balanced strip
// partition from geo.PartitionStrips; only interference crosses shard
// boundaries, never a data/ACK exchange.
package shard
