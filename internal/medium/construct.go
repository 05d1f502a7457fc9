package medium

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
)

// Delivery is one audible receiver of a node's transmissions: the
// receiver index and the power it hears, in mW, at the common transmit
// power. Delivery lists are the medium's ground truth — Transmit fans
// out over them, the analytic extractor reads them back through GainMW,
// and the sharded engine partitions them — so they are built in exactly
// one place, here. The struct itself lives in phy so an in-flight
// Transmission can snapshot its list without an import cycle.
type Delivery = phy.Delivery

// floorGuardDB is the guard band around the delivery floor inside which
// floor.gain defers to the exact mW comparison. It is ~10⁹ ulps of the
// dBm values involved and ~10⁹ times math.Pow's relative error, so a
// received power more than this far below the floor can never convert
// to a gain at or above floorMW.
const floorGuardDB = 1e-6

// floor is the audibility predicate every delivery list is built with,
// at construction and on a row rebuilt after a move alike. A link is
// audible exactly when DBmToMW(TxPowerDBm − loss) >= floorMW — the
// literal test denseDeliveries spells out — but most grid candidates
// sit decibels below the floor, so the dBm comparison rejects them
// before paying for the Pow. Kept sets and stored gains are
// bit-identical to the literal form (TestFloorMatchesLiteral).
type floor struct {
	txDBm, cutDBm, floorMW float64
}

func newFloor(params phy.Params) floor {
	return floor{
		txDBm:   params.TxPowerDBm,
		cutDBm:  params.DeliveryFloorDBm - floorGuardDB,
		floorMW: radio.DBmToMW(params.DeliveryFloorDBm),
	}
}

// gain returns the received power in mW over a link of the given loss
// and whether it clears the delivery floor. The gain is meaningful only
// when the link is audible.
func (f floor) gain(lossDB float64) (float64, bool) {
	rx := f.txDBm - lossDB
	if rx < f.cutDBm {
		return 0, false
	}
	g := radio.DBmToMW(rx)
	return g, g >= f.floorMW
}

// screen is the model's shadowing screen at the floor's loss budget,
// asked before every grid-path model evaluation. A pair it refuses is
// one floor.gain would have rejected (radio.Screener's contract, at the
// budget txDBm − cutDBm, so the floor's guard band is inside it), and a
// pair it passes goes down the unscreened path untouched, so kept sets
// and stored gains do not depend on it. The zero screen — the model
// offers none — refuses nothing. The dense reference paths never ask.
type screen struct {
	by  radio.Screener
	tab *radio.Screen
}

func newScreen(fl floor, model radio.Model) screen {
	if by, ok := model.(radio.Screener); ok {
		if tab := by.Screen(fl.txDBm - fl.cutDBm); tab != nil {
			return screen{by, tab}
		}
	}
	return screen{}
}

// refuses reports whether the model can prove b out of a's earshot
// without evaluating the link.
func (s screen) refuses(a int, pa geo.Point, b int, pb geo.Point) bool {
	return s.by != nil && s.by.Inaudible(s.tab, a, pa, b, pb)
}

// sortedCopy sorts a scratch row by receiver and returns it as a fresh
// exact-length list, nil when empty: the form every delivery list is
// stored in. Grid visit order is cell-major, and sorting the few kept
// entries is far cheaper than sorting the candidates they came from.
func sortedCopy(row []Delivery) []Delivery {
	if len(row) == 0 {
		return nil
	}
	slices.SortFunc(row, func(x, y Delivery) int { return cmp.Compare(x.Dst, y.Dst) })
	list := make([]Delivery, len(row))
	copy(list, row)
	return list
}

// BuildDeliveries computes, for every node, the receivers that hear it
// above the delivery floor, in ascending receiver order, with the power
// each receives. The candidate set is enumerated through a spatial grid
// queried at the model's range bound (+Inf when it has none, so every
// pair is a candidate) — each candidate put to the model's screen, the
// survivors evaluated in grid visit order, the kept entries sorted —
// and the per-node computation fans out across workers
// goroutines (workers <= 0 means GOMAXPROCS); the output is
// bit-identical at any worker count because each node's list is an
// independent pure computation written to a disjoint slot, and every
// model in internal/radio is a pure function of its arguments
// (deterministic per-pair shadowing, no state but a memoised screen
// table read through an atomic), which makes concurrent Loss and
// Inaudible calls safe. The second result reports whether the model
// bounds its range, so that the grid prunes candidates.
func BuildDeliveries(params phy.Params, model radio.Model, positions []geo.Point, workers int) ([][]Delivery, bool) {
	maxRange, bounded := reach(params, model)
	n := len(positions)
	lists := make([][]Delivery, n)
	fl := newFloor(params)
	scr := newScreen(fl, model)
	grid := geo.NewGrid(positions, maxRange)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	fill := func(lo, hi int) {
		row := make([]Delivery, 0, 64) // scratch, reused across this worker's nodes
		for a := lo; a < hi; a++ {
			row = gridRow(row[:0], a, positions, grid, maxRange, fl, scr, model, nil)
			lists[a] = sortedCopy(row)
		}
	}
	if workers == 1 {
		fill(0, n)
		return lists, bounded
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(lo, hi)
		}()
	}
	wg.Wait()
	return lists, bounded
}

// reach returns the model's range bound at the delivery floor, and
// whether it is a usable one. A model without one, or with a
// non-positive or non-finite one, reaches +Inf: a grid query of that
// radius visits every cell, so every pair is a candidate.
func reach(params phy.Params, model radio.Model) (float64, bool) {
	if rb, ok := model.(radio.RangeBounder); ok {
		r := rb.MaxRange(params.TxPowerDBm - params.DeliveryFloorDBm)
		if r > 0 && !math.IsInf(r, 1) && !math.IsNaN(r) {
			return r, true
		}
	}
	return math.Inf(1), false
}

// gridRow appends node a's audible receivers to row in grid visit
// order: every grid candidate within maxRange that the screen passes
// and that clears the floor, with its gain. A non-nil keep narrows the
// candidates to the nodes it marks before any of them is looked at;
// each one kept is decided exactly as without it. It is the one per-row
// computation of the grid path, at construction (BuildDeliveries),
// after a move (Medium.row) and for a frame's attended receivers
// (Medium.heardRow) alike; sortedCopy turns its output into the stored
// row.
func gridRow(row []Delivery, a int, positions []geo.Point, grid *geo.Grid, maxRange float64, fl floor, scr screen, model radio.Model, keep []bool) []Delivery {
	pa := positions[a]
	grid.Near(a, maxRange, func(cell []int) {
		for _, b := range cell {
			if b == a || keep != nil && !keep[b] {
				continue
			}
			pb := positions[b]
			if !(pa.Dist(pb) <= maxRange) || scr.refuses(a, pa, b, pb) {
				continue
			}
			if g, ok := fl.gain(model.Loss(a, pa, b, pb)); ok {
				row = append(row, Delivery{Dst: b, GainMW: g})
			}
		}
	})
	return row
}

// denseDeliveries is the reference O(n²) construction over every
// ordered pair, behind NewDense. It stays serial and obviously correct;
// the grid path is proven against it by TestSparseDenseFlowEquivalence
// and the worker-count equivalence test.
func denseDeliveries(params phy.Params, model radio.Model, positions []geo.Point) [][]Delivery {
	n := len(positions)
	lists := make([][]Delivery, n)
	floorMW := radio.DBmToMW(params.DeliveryFloorDBm)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			loss := model.Loss(a, positions[a], b, positions[b])
			if g := radio.DBmToMW(params.TxPowerDBm - loss); g >= floorMW {
				lists[a] = append(lists[a], Delivery{Dst: b, GainMW: g})
			}
		}
	}
	return lists
}
