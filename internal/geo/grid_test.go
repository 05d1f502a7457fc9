package geo

import (
	"math"
	"sort"
	"testing"
)

// splitmix is a tiny local PRNG; geo cannot import sim (sim is above it
// in no package order, but keep geo dependency-free regardless).
type splitmix uint64

func (s *splitmix) next() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

func randomPoints(n int, w, h float64, seed uint64) []Point {
	rng := splitmix(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.next() * w, Y: rng.next() * h}
	}
	return pts
}

// bruteWithin is the reference the grid must agree with exactly.
func bruteWithin(pts []Point, i int, radius float64) []int {
	var out []int
	for j, q := range pts {
		if j != i && pts[i].Dist(q) <= radius {
			out = append(out, j)
		}
	}
	return out
}

// gridWithin is the grid query as its callers use it: the cells' points
// other than i, narrowed by the same distance test the reference applies.
func gridWithin(g *Grid, i int, radius float64) []int {
	var out []int
	g.Near(i, radius, func(cell []int) {
		for _, j := range cell {
			if j != i && g.At(i).Dist(g.At(j)) <= radius {
				out = append(out, j)
			}
		}
	})
	sort.Ints(out)
	return out
}

func TestGridMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n         int
		w, h      float64
		cell, rad float64
		seed      uint64
	}{
		{n: 200, w: 100, h: 40, cell: 10, rad: 10},
		{n: 200, w: 100, h: 40, cell: 25, rad: 7.5},
		{n: 300, w: 1000, h: 1000, cell: 60, rad: 60},
		{n: 50, w: 5, h: 5, cell: 1, rad: 2.5},      // dense: many per cell
		{n: 64, w: 2000, h: 10, cell: 100, rad: 90}, // thin strip
	} {
		pts := randomPoints(tc.n, tc.w, tc.h, tc.seed+1)
		g := NewGrid(pts, tc.cell)
		for i := range pts {
			got := gridWithin(g, i, tc.rad)
			want := bruteWithin(pts, i, tc.rad)
			if len(got) != len(want) {
				t.Fatalf("case %+v node %d: grid found %d neighbours, brute force %d", tc, i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("case %+v node %d: neighbour set differs at %d: %d vs %d", tc, i, k, got[k], want[k])
				}
			}
		}
	}
}

func TestGridRadiusCoversEverything(t *testing.T) {
	pts := randomPoints(100, 50, 50, 7)
	g := NewGrid(pts, 10)
	for _, rad := range []float64{1e6, math.Inf(1)} {
		for i := range pts {
			if got := len(gridWithin(g, i, rad)); got != len(pts)-1 {
				t.Fatalf("radius %v from node %d reached %d of %d others", rad, i, got, len(pts)-1)
			}
		}
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	// Exactly-at-radius neighbours are included (<=, matching the
	// delivery-floor comparison in the medium).
	pts := []Point{{0, 0}, {3, 4}, {3.0001, 4}}
	g := NewGrid(pts, 2)
	got := gridWithin(g, 0, 5)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("within 5 of point 0: %v, want [1]", got)
	}
}

func TestGridDegenerateInputs(t *testing.T) {
	// Empty set.
	g := NewGrid(nil, 5)
	_ = g
	// All points coincident: single cell, everything mutual.
	same := []Point{{2, 3}, {2, 3}, {2, 3}}
	g = NewGrid(same, 4)
	if got := gridWithin(g, 1, 0); len(got) != 2 {
		t.Fatalf("coincident points: %v, want both others at radius 0", got)
	}
	// Non-positive and non-finite cell sizes collapse to one cell but
	// still answer correctly.
	pts := randomPoints(40, 30, 30, 9)
	for _, cell := range []float64{0, -1, math.Inf(1), math.NaN()} {
		g := NewGrid(pts, cell)
		for i := 0; i < len(pts); i += 7 {
			got := gridWithin(g, i, 8)
			want := bruteWithin(pts, i, 8)
			if len(got) != len(want) {
				t.Fatalf("cell=%v node %d: %d neighbours, want %d", cell, i, len(got), len(want))
			}
		}
	}
	// Single point: no neighbours at any radius.
	g = NewGrid([]Point{{1, 1}}, 1)
	if got := gridWithin(g, 0, math.Inf(1)); len(got) != 0 {
		t.Fatalf("lone point has neighbours: %v", got)
	}
}

// TestGridEach checks that Each visits every point exactly once, cell
// by cell, before and after points are re-bucketed.
func TestGridEach(t *testing.T) {
	pts := randomPoints(300, 100, 60, 11)
	g := NewGrid(pts, 10)
	check := func(label string) {
		t.Helper()
		seen := make([]bool, len(pts))
		last := -1
		g.Each(func(j int) {
			if seen[j] {
				t.Fatalf("%s: point %d visited twice", label, j)
			}
			seen[j] = true
			if c := g.cellIndex(g.At(j)); c < last {
				t.Fatalf("%s: point %d in cell %d visited after cell %d", label, j, c, last)
			} else {
				last = c
			}
		})
		for j, ok := range seen {
			if !ok {
				t.Fatalf("%s: point %d never visited", label, j)
			}
		}
	}
	check("construction")
	rng := splitmix(5)
	for i := range pts {
		if i%3 == 0 {
			g.Move(i, Point{X: rng.next()*140 - 20, Y: rng.next()*100 - 20})
		}
	}
	check("after moves")
}
