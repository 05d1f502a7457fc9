package medium

// Hooks for the external medium_test package.

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// NopHandler is a station that ignores every upcall.
type NopHandler = nopHandler

// Rows returns the live delivery lists, one per node, rebuilding every
// row a move left stale.
func (m *Medium) Rows() [][]Delivery {
	for i := range m.deliveries {
		m.row(i)
	}
	return m.deliveries
}
