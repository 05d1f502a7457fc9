// Package medium implements the shared wireless channel: it places
// radios, computes the received power of every transmission at every
// other radio through the propagation model, and drives the signal
// start/end callbacks of the radios a station listens on in virtual
// time.
//
// # Relation to the paper
//
// The medium realises the §5.1 testbed channel: who hears whom, at what
// power, with every concurrent transmission contributing interference
// at every receiver — the ground truth CMAP's conflict maps learn from
// and carrier sense reacts to.
//
// # Sparse storage
//
// The channel is stored sparsely: each node keeps a sorted delivery
// list of only the receivers that hear it above the delivery floor.
// Lists are built with a spatial grid when the propagation model can
// bound its range (radio.RangeBounder), making construction O(n·k) at
// fixed node density and Transmit O(audible receivers) at most — the
// representation that lets the testbed scale from the paper's 50 nodes
// to thousands. NewDense retains the brute-force O(n²) construction as
// the reference the sparse path is tested against; both produce
// bit-identical simulations.
//
// The range bound has to budget for the luckiest shadowing draw there
// is (+6σ: 6.3× the unshadowed range at the urban model's constants),
// so nineteen grid candidates in twenty are out of earshot at the draw
// they actually got — 706 candidates per node for 37 kept at 200
// nodes/km². Where the model offers a radio.Screener the grid's row
// computation (gridRow) puts every candidate within range to it first,
// and evaluates the model only on the tenth that survives. The screen
// is one-sided — it refuses only pairs the floor would have rejected —
// so kept sets and stored gains are the same bits with or without it;
// the dense reference paths never consult it, and the equivalence tests
// hold the screened paths to them.
//
// # Rows under motion
//
// MoveNodes evaluates no pair. It moves the nodes in the grid and marks
// every row stale; a stale row is rebuilt by the same row computation
// on its next full read, over the positions and model state of that
// read. Every full reader — NeighborCount, ForEachNeighbor, GainMW,
// RxPowerDBm, an All frame — goes through one accessor. An ordinary
// frame over a stale row builds only the row's attended part, by the
// same computation narrowed to the receivers a station listens on, and
// leaves the full row to the next full read; it reaches exactly the
// receivers, in the order and at the powers, the full row's attended
// entries would give it. So a mobile run pays, between two epochs, for
// the attended candidates of the nodes that transmit and the rows it
// asks about, a small share of the network, and a static run never
// takes the path. Construction stays eager. See incremental.go and
// ARCHITECTURE.md, "Mobility and the incremental medium".
//
// # Who hears a frame
//
// A delivery list says who could hear a sender; a frame is delivered to
// the entries a station listens on. Radio.SetHandler tells the medium
// about a radio's first handler (Attend). Each frame carries the
// positions on its sender's list of the radios attended when it started
// (Transmission.Heard, derived once per sender until the next attach or
// move; nil when the list itself holds only those), and both fan-outs — Arrive at the start of a frame, Depart at
// its end — walk exactly those entries. The paper's experiments, and every run
// here, put stations on a handful of a testbed's nodes; a radio nobody
// attached to transmits nothing, draws from a private RNG stream and
// has nobody to tell, so skipping it changes no result. One exception:
// a frame that starts in an instant in which a station attached goes to
// every entry (Transmission.All), because a MAC may transmit while the
// run is still being wired and stations attached later in that instant
// must find the frame on the air. See ARCHITECTURE.md, "Who hears a
// frame"; FuzzAttachOrder holds the Arrive/Depart pairing under any
// order of attaches and frames.
//
// # The zero-allocation transmit path
//
// The per-frame data path is allocation-free in steady state: each
// transmission borrows a phy.Transmission from the medium's free list,
// fans out to listening receivers as (shared pointer, per-receiver
// power) pairs,
// and is torn down by a single scheduler event that walks the delivery
// list again — no per-receiver closures, no per-receiver signal
// objects. Delivery gains are stored in linear mW, which is also the
// domain the radios' segment fan-out (Arrive/Depart) computes
// in: the reception math never round-trips through dB per segment.
// TestTransmitSteadyStateZeroAllocs gates this at 0 allocs/frame.
package medium
