package medium

// Hooks for the external medium_test package.

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// Rows returns the live delivery lists, one per node.
func (m *Medium) Rows() [][]Delivery { return m.deliveries }
