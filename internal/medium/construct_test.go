package medium

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// constructLayout is a kilometre-square layout dense enough that the
// grid prunes and every worker chunk holds real work.
func constructLayout(n int) []geo.Point {
	rng := sim.NewRNG(0xc0175)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

// sameRows fails unless got holds want's rows bit for bit, with every
// empty row nil, the form every delivery list is stored in.
func sameRows(t *testing.T, got, want [][]Delivery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("list count %d, want %d", len(got), len(want))
	}
	for a := range want {
		if len(got[a]) != len(want[a]) {
			t.Fatalf("node %d: %d deliveries, want %d", a, len(got[a]), len(want[a]))
		}
		if len(got[a]) == 0 && got[a] != nil {
			t.Fatalf("node %d: an empty row that is not nil", a)
		}
		for k := range want[a] {
			g, w := got[a][k], want[a][k]
			if g.Dst != w.Dst || math.Float64bits(g.GainMW) != math.Float64bits(w.GainMW) {
				t.Fatalf("node %d delivery %d: %+v, want %+v (must be bit-identical)", a, k, g, w)
			}
		}
	}
}

// TestBuildDeliveriesWorkerEquivalence pins the parallel-construction
// contract: the delivery lists are bit-identical at every worker count,
// including counts far above the node count and the GOMAXPROCS default,
// and at the edges of the interleaved partition — no node, one, and a
// pair in earshot of each other, at one to three workers.
func TestBuildDeliveriesWorkerEquivalence(t *testing.T) {
	params := phy.DefaultParams()
	model := radio.DefaultIndoor5GHz(7)
	pts := constructLayout(300)
	ref, refGrid := BuildDeliveries(params, model, pts, 1)
	if !refGrid {
		t.Fatal("model should be range-bounded (grid path)")
	}
	for _, workers := range []int{0, 2, 3, 4, 8, 1000} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, grid := BuildDeliveries(params, model, pts, workers)
			if !grid {
				t.Fatal("grid path not taken")
			}
			sameRows(t, got, ref)
		})
	}
	pair := []geo.Point{{X: 0, Y: 0}, {X: 20, Y: 0}}
	for n := 0; n <= len(pair); n++ {
		want := denseDeliveries(params, model, pair[:n])
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				got, _ := BuildDeliveries(params, model, pair[:n], workers)
				sameRows(t, got, want)
				if n == 2 && len(got[0]) != 1 {
					t.Fatalf("the pair is %v m apart and node 0 hears %d nodes", pair[0].Dist(pair[1]), len(got[0]))
				}
			})
		}
	}
}

// TestBuildDeliveriesMatchesDense proves the grid-pruned parallel
// construction keeps exactly the pairs the exhaustive reference scan
// keeps, with identical gains, for every range-bounded model kind:
// shadowed LogDistance, FreeSpace, and a mobility channel whose
// shadowing epochs have been bumped apart, so most pairs draw under a
// seed of their own.
func TestBuildDeliveriesMatchesDense(t *testing.T) {
	params := phy.DefaultParams()
	pts := constructLayout(150)
	ch := mobility.NewChannel(radio.DefaultIndoor5GHz(5), len(pts))
	rng := sim.NewRNG(0xb0b)
	for k := 0; k < 3*len(pts); k++ {
		ch.Bump(rng.Intn(len(pts)))
	}
	for _, tc := range []struct {
		name  string
		model radio.Model
	}{
		{"LogDistance", radio.DefaultIndoor5GHz(3)},
		{"FreeSpace", &radio.FreeSpace{RefLossDB: 46.8, Exponent: 3}},
		{"Channel", ch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sparse, grid := BuildDeliveries(params, tc.model, pts, 4)
			if !grid {
				t.Fatal("grid path not taken")
			}
			sameRows(t, sparse, denseDeliveries(params, tc.model, pts))
		})
	}
}

// TestFloorMatchesLiteral pins the guard band under the shared
// audibility predicate: floor.gain must agree with the literal
// DBmToMW(TxPowerDBm − loss) >= floorMW that denseDeliveries spells out
// — same verdict, same gain bits when audible — at every float
// neighbour of the delivery floor and of the guard-band edge, at
// random losses, and at the non-finite ones.
func TestFloorMatchesLiteral(t *testing.T) {
	check := func(params phy.Params, loss float64) {
		t.Helper()
		wantG := radio.DBmToMW(params.TxPowerDBm - loss)
		want := wantG >= radio.DBmToMW(params.DeliveryFloorDBm)
		g, got := newFloor(params).gain(loss)
		if got != want {
			t.Fatalf("tx %v floor %v loss %v (%x): predicate says %v, literal %v",
				params.TxPowerDBm, params.DeliveryFloorDBm, loss, math.Float64bits(loss), got, want)
		}
		if want && math.Float64bits(g) != math.Float64bits(wantG) {
			t.Fatalf("tx %v floor %v loss %v: gain %x, literal %x",
				params.TxPowerDBm, params.DeliveryFloorDBm, loss, math.Float64bits(g), math.Float64bits(wantG))
		}
	}
	rng := sim.NewRNG(0xf100)
	budgets := []phy.Params{phy.DefaultParams()}
	for i := 0; i < 20; i++ {
		p := phy.DefaultParams()
		p.TxPowerDBm = 30 * rng.Float64()
		p.DeliveryFloorDBm = -60 - 60*rng.Float64()
		budgets = append(budgets, p)
	}
	for _, params := range budgets {
		atFloor := params.TxPowerDBm - params.DeliveryFloorDBm
		for _, centre := range []float64{atFloor, atFloor + floorGuardDB, atFloor - floorGuardDB} {
			up, down := centre, centre
			for k := 0; k < 4000; k++ {
				check(params, up)
				check(params, down)
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, math.Inf(-1))
			}
		}
		// Across the guard band in even steps, where the exact comparison
		// decides, and well outside it on both sides.
		for k := -3000; k <= 3000; k++ {
			check(params, atFloor+float64(k)*floorGuardDB/1000)
		}
		for k := 0; k < 20000; k++ {
			check(params, 250*rng.Float64()-20)
		}
		for _, loss := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64} {
			check(params, loss)
		}
	}
}
