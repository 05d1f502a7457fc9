package medium

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// layouts the sparse construction must reproduce exactly: office-floor
// scale (grid radius covers everything) and a kilometre square (grid
// actually prunes).
func sparseLayouts() map[string][]geo.Point {
	out := map[string][]geo.Point{}
	rng := sim.NewRNG(0x5ba)
	floor := make([]geo.Point, 60)
	for i := range floor {
		floor[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 40}
	}
	out["floor"] = floor
	wide := make([]geo.Point, 150)
	for i := range wide {
		wide[i] = geo.Point{X: rng.Float64() * 3000, Y: rng.Float64() * 3000}
	}
	out["wide"] = wide
	return out
}

func TestSparseMatchesDenseDeliveryLists(t *testing.T) {
	params := phy.DefaultParams()
	for name, pts := range sparseLayouts() {
		for _, model := range []radio.Model{
			radio.DefaultIndoor5GHz(7),
			radio.DefaultUrban5GHz(7),
			&radio.FreeSpace{RefLossDB: 47, Exponent: 2.5},
		} {
			sparse := New(sim.NewScheduler(), params, model, pts, sim.NewRNG(1))
			dense := NewDense(sim.NewScheduler(), params, model, pts, sim.NewRNG(1))
			if !sparse.GridBacked() {
				t.Fatalf("%s: sparse construction did not use the grid for %T", name, model)
			}
			if dense.GridBacked() {
				t.Fatalf("%s: dense construction claims to be grid backed", name)
			}
			for a := range pts {
				sl, dl := sparse.row(a), dense.row(a)
				if len(sl) != len(dl) {
					t.Fatalf("%s %T node %d: sparse %d deliveries, dense %d", name, model, a, len(sl), len(dl))
				}
				for k := range sl {
					if sl[k] != dl[k] {
						t.Fatalf("%s %T node %d delivery %d: sparse %+v, dense %+v", name, model, a, k, sl[k], dl[k])
					}
				}
			}
		}
	}
}

func TestSparseRxPowerMatchesModelBelowFloor(t *testing.T) {
	// RxPowerDBm must answer for sub-floor pairs too (the §5.1
	// measurement pass asks about every pair), by falling back to the
	// model, and the answer must equal what the dense matrix held.
	params := phy.DefaultParams()
	model := radio.DefaultUrban5GHz(3)
	pts := sparseLayouts()["wide"]
	sparse := New(sim.NewScheduler(), params, model, pts, sim.NewRNG(1))
	dense := NewDense(sim.NewScheduler(), params, model, pts, sim.NewRNG(1))
	stored, recomputed := 0, 0
	for a := 0; a < len(pts); a += 3 {
		for b := 0; b < len(pts); b += 3 {
			sp, dp := sparse.RxPowerDBm(a, b), dense.RxPowerDBm(a, b)
			if sp != dp && !(math.IsInf(sp, -1) && math.IsInf(dp, -1)) {
				t.Fatalf("RxPowerDBm(%d,%d): sparse %v, dense %v", a, b, sp, dp)
			}
			if _, ok := sparse.lookupGain(a, b); ok {
				stored++
			} else if a != b {
				recomputed++
			}
		}
	}
	if stored == 0 || recomputed == 0 {
		t.Fatalf("layout exercises only one path: %d stored, %d recomputed", stored, recomputed)
	}
}

func TestSparsePrunesWideLayout(t *testing.T) {
	// On the kilometre square, the delivery lists must be genuinely
	// sparse: far fewer than n² entries, with no O(n²) structure held.
	params := phy.DefaultParams()
	pts := sparseLayouts()["wide"]
	m := New(sim.NewScheduler(), params, radio.DefaultUrban5GHz(7), pts, sim.NewRNG(1))
	total := 0
	for i := range pts {
		total += m.NeighborCount(i)
	}
	n := len(pts)
	if total >= n*(n-1)/2 {
		t.Fatalf("wide layout kept %d of %d ordered pairs — not sparse", total, n*(n-1))
	}
	if total == 0 {
		t.Fatal("wide layout has no audible links at all")
	}
}

func TestMatrixModelFallsBackToDenseConstruction(t *testing.T) {
	// Matrix has no geometry, so New must silently use the exhaustive
	// scan and still deliver.
	loss := [][]float64{{0, 70}, {70, 0}}
	m := New(sim.NewScheduler(), phy.DefaultParams(), &radio.Matrix{LossDB: loss},
		make([]geo.Point, 2), sim.NewRNG(1))
	if m.GridBacked() {
		t.Fatal("Matrix model cannot be grid backed")
	}
	if m.NeighborCount(0) != 1 || m.NeighborCount(1) != 1 {
		t.Fatalf("neighbour counts = %d,%d, want 1,1", m.NeighborCount(0), m.NeighborCount(1))
	}
}

func TestForEachNeighborAscending(t *testing.T) {
	pts := sparseLayouts()["floor"]
	m := New(sim.NewScheduler(), phy.DefaultParams(), radio.DefaultIndoor5GHz(7), pts, sim.NewRNG(1))
	for i := range pts {
		prev := -1
		m.ForEachNeighbor(i, func(dst int, gainMW float64) {
			if dst <= prev {
				t.Fatalf("node %d neighbours out of order: %d after %d", i, dst, prev)
			}
			if gainMW < m.floor.floorMW {
				t.Fatalf("node %d neighbour %d below delivery floor", i, dst)
			}
			prev = dst
		})
	}
}

// TestWeakCountsInterferenceEdgeTraffic pins what RadioStats.Weak
// means: on a static topology, the arrivals the radios' interference
// path took, summed over the network, are exactly the frames each node
// sent times the sub-sensitivity entries of its delivery row — the
// interference-graph edge traffic and nothing else. Every node gets a
// listener: a radio nobody attached to is delivered nothing.
func TestWeakCountsInterferenceEdgeTraffic(t *testing.T) {
	pts := sparseLayouts()["wide"]
	params := phy.DefaultParams()
	sched := sim.NewScheduler()
	m := New(sched, params, radio.DefaultIndoor5GHz(7), pts, sim.NewRNG(1))
	for i := range pts {
		m.Radio(i).SetHandler(nopHandler{})
	}
	rate := phy.RateByID(phy.Rate6Mbps)
	// Every node sends a different number of frames back to back, so
	// transmissions from different nodes overlap freely.
	var send func(src, left int)
	send = func(src, left int) {
		if left == 0 {
			return
		}
		end := m.Radio(src).Transmit(dataFrame(src, src), rate)
		sched.Post(end+sim.Microsecond, call(func() { send(src, left-1) }), nil)
	}
	rng := sim.NewRNG(2)
	for i := range pts {
		src, frames := i, 1+i%4
		sched.Post(rng.DurationIn(0, 5*sim.Millisecond), call(func() { send(src, frames) }), nil)
	}
	sched.RunAll()

	sensitivityMW := radio.DBmToMW(phy.SensitivityDBm)
	var weak, want, strongEdges uint64
	for i := range pts {
		st := m.Radio(i).Stats()
		weak += st.Weak
		m.ForEachNeighbor(i, func(_ int, gainMW float64) {
			if gainMW < sensitivityMW {
				want += st.Transmitted
			} else {
				strongEdges++
			}
		})
		if m.Radio(i).ActiveSignals() != 0 {
			t.Errorf("node %d still hears %d signals after the last frame", i, m.Radio(i).ActiveSignals())
		}
	}
	if want == 0 || strongEdges == 0 {
		t.Fatalf("layout has %d weak-edge arrivals and %d decodable edges; the test needs both", want, strongEdges)
	}
	if weak != want {
		t.Errorf("Σ Weak = %d, want Σ Transmitted × sub-sensitivity row entries = %d", weak, want)
	}
}
