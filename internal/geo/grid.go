package geo

import (
	"math"
	"slices"
)

// Grid is a uniform spatial hash over a point set. It answers "which
// points may lie within radius r of point i" in time proportional to
// the population of the cells the query circle overlaps, which makes
// neighbour enumeration over n points O(n·k) at fixed density instead of
// O(n²). Construction buckets the initial point set into a compact CSR
// layout; Move re-buckets individual points afterwards (mobile nodes),
// switching the grid to mutable per-cell buckets on first use.
type Grid struct {
	pts        []Point
	minX, minY float64
	cell       float64
	cols, rows int
	// CSR layout: items[start[c]:start[c+1]] are the point indices in
	// cell c, in ascending index order. Dropped after the first Move in
	// favour of cells.
	start []int
	items []int
	// cells[c] holds cell c's point indices, ascending, once Move has
	// materialised the mutable representation; nil until then.
	cells [][]int
}

// NewGrid buckets pts into square cells of the given size. A non-positive
// or non-finite cell size collapses the grid to a single cell (every
// query then degenerates to a scan, which stays correct).
func NewGrid(pts []Point, cell float64) *Grid {
	g := &Grid{pts: pts, cell: cell, cols: 1, rows: 1}
	if len(pts) == 0 {
		g.start = []int{0, 0}
		return g
	}
	g.minX, g.minY = pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts {
		g.minX = math.Min(g.minX, p.X)
		g.minY = math.Min(g.minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if !(cell > 0) || math.IsInf(cell, 0) || math.IsNaN(cell) {
		g.cell = math.Max(math.Max(maxX-g.minX, maxY-g.minY), 1)
	}
	g.cols = int((maxX-g.minX)/g.cell) + 1
	g.rows = int((maxY-g.minY)/g.cell) + 1
	counts := make([]int, g.cols*g.rows+1)
	for _, p := range pts {
		counts[g.cellIndex(p)+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	g.start = counts
	g.items = make([]int, len(pts))
	fill := make([]int, g.cols*g.rows)
	copy(fill, g.start[:len(g.start)-1])
	// Filling in point-index order keeps each cell's slice ascending.
	for i, p := range pts {
		c := g.cellIndex(p)
		g.items[fill[c]] = i
		fill[c]++
	}
	return g
}

// toCell converts a fractional cell coordinate to an index, saturating
// non-finite and out-of-range values so ±Inf radii stay well-defined.
func toCell(v float64) int {
	if math.IsNaN(v) || v < math.MinInt32 {
		return math.MinInt32
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}

// cellIndex maps a point to its (clamped) flat cell index.
func (g *Grid) cellIndex(p Point) int {
	cx := g.clampCol(int((p.X - g.minX) / g.cell))
	cy := g.clampRow(int((p.Y - g.minY) / g.cell))
	return cy*g.cols + cx
}

func (g *Grid) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func (g *Grid) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		return g.rows - 1
	}
	return r
}

// Near calls visit once for each cell that the square of half-side
// radius around point i overlaps, with that cell's point indices in
// ascending order — point i itself among them. Together they are a
// superset of the points within radius of i, which the caller narrows
// with its own distance test (p.Dist(q) <= radius), after whatever
// cheaper check can rule a point out first; one call per cell instead
// of one per point keeps that loop in the caller. Cells are visited
// row-major; callers needing a canonical order must sort what they
// collect. visit must not modify or retain the slice.
func (g *Grid) Near(i int, radius float64, visit func(cell []int)) {
	p := g.pts[i]
	cx0 := g.clampCol(toCell((p.X - radius - g.minX) / g.cell))
	cx1 := g.clampCol(toCell((p.X + radius - g.minX) / g.cell))
	cy0 := g.clampRow(toCell((p.Y - radius - g.minY) / g.cell))
	cy1 := g.clampRow(toCell((p.Y + radius - g.minY) / g.cell))
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			if c := g.bucket(cy*g.cols + cx); len(c) > 0 {
				visit(c)
			}
		}
	}
}

// bucket returns cell c's point indices, ascending, from whichever
// representation is live.
func (g *Grid) bucket(c int) []int {
	if g.cells != nil {
		return g.cells[c]
	}
	return g.items[g.start[c]:g.start[c+1]]
}

// At returns point i's current position.
func (g *Grid) At(i int) Point { return g.pts[i] }

// Move updates point i to p, re-bucketing it if it crossed a cell
// boundary. The stored point slice is mutated in place (callers that
// must keep the construction-time positions pass NewGrid a copy). The
// grid's cell geometry is fixed at construction: points that move
// outside the original bounds clamp into the edge cells, which stays
// exact because cellIndex clamps identically on insert and on query and
// the callers' distance test rejects any false candidates — a point
// at unclamped column ≥ cols lands in column cols-1, and any query
// circle reaching it clamps its column range to cols-1 too.
func (g *Grid) Move(i int, p Point) {
	if g.cells == nil {
		// First move: materialise mutable buckets from the CSR arrays.
		g.cells = make([][]int, g.cols*g.rows)
		for c := range g.cells {
			if s := g.items[g.start[c]:g.start[c+1]]; len(s) > 0 {
				g.cells[c] = append([]int(nil), s...)
			}
		}
		g.start, g.items = nil, nil
	}
	oc := g.cellIndex(g.pts[i])
	g.pts[i] = p
	nc := g.cellIndex(p)
	if nc == oc {
		return
	}
	old := g.cells[oc]
	if k, ok := slices.BinarySearch(old, i); ok {
		g.cells[oc] = append(old[:k], old[k+1:]...)
	}
	now := g.cells[nc]
	k, _ := slices.BinarySearch(now, i)
	g.cells[nc] = slices.Insert(now, k, i)
}
