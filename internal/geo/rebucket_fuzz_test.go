package geo

import (
	"math"
	"slices"
	"testing"
)

// FuzzGridRebucket drives random move sequences — zero-length moves,
// cell-boundary crossings, and far out-of-bounds jumps that exercise
// the edge-cell clamp — against a flat brute-force reference, checking
// Near, narrowed by the distance test its callers apply, after
// every move from several query points and radii.
func FuzzGridRebucket(f *testing.F) {
	f.Add([]byte{5, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1, 0, 0, 2, 127, 127, 3, 5, 5})
	f.Add([]byte("grid-rebucket-seed: crossings and clamps"))
	f.Add([]byte{4, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 200, 200, 1, 200, 0, 2, 0, 0, 3, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 4 + int(data[0])%12
		cell := 1 + float64(data[1]%8)
		data = data[2:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: float64(int8(next())), Y: float64(int8(next()))}
		}
		ref := append([]Point(nil), pts...)
		g := NewGrid(pts, cell) // g owns pts; ref is the flat model
		check := func(i int, radius float64) {
			var got []int
			g.Near(i, radius, func(cell []int) {
				for _, j := range cell {
					if j != i && g.At(i).Dist(g.At(j)) <= radius {
						got = append(got, j)
					}
				}
			})
			slices.Sort(got)
			var want []int
			for j := range ref {
				if j != i && ref[i].Dist(ref[j]) <= radius {
					want = append(want, j)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("point %d, radius %g: grid %v, flat reference %v (points %v)", i, radius, got, want, ref)
			}
		}
		for len(data) >= 3 {
			i := int(next()) % n
			scale := 1.0
			if b := next(); b&1 == 1 {
				scale = 16 // jump far outside the construction bounds
			}
			p := Point{
				X: ref[i].X + scale*float64(int8(next()))/4,
				Y: ref[i].Y + scale*float64(int8(next()))/4,
			}
			g.Move(i, p)
			ref[i] = p
			if got := g.At(i); got != p {
				t.Fatalf("At(%d) = %v after Move to %v", i, got, p)
			}
			check(i, cell*1.5)
			check((i+1)%n, 3.7)
			check((i+3)%n, math.Inf(1))
		}
	})
}
