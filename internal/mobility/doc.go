// Package mobility gives node positions a time axis. A Manager drives
// one of three movement models — random waypoint, random walk, and a
// vehicular lane flow — from per-node RNG streams derived off the run's
// seed discipline, applying each position epoch to the medium as one
// batch through its incremental MoveNodes patch path. A Channel wraps a radio model to
// slowly re-draw per-pair log-normal shadowing as nodes travel past the
// decorrelation distance, so the channel decorrelates in time the way
// measured testbeds do rather than staying frozen at its first draw.
// Both halves are checkpointable: the manager's full state (per-node
// RNG streams, targets, velocities, travel odometers, shadow epochs)
// exports into the run envelope so a resumed simulation is
// bit-identical to an uninterrupted one.
package mobility
