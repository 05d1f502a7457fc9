package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestMeshPinned is the §5.7 mesh figure's behaviour pin: the mesh is in
// no golden file, so the IEEE-754 bits of every per-topology score are
// fixed here for two seeds at a small scale (8 s runs measured past 2 s,
// two meshes). Recorded before the two mesh runners were merged; any
// change to stream labels, station construction order or the phase
// controller moves these bits.
func TestMeshPinned(t *testing.T) {
	want := map[uint64]struct{ cmap, csma []uint64 }{
		1: {
			cmap: []uint64{0x400d990dca34b3ae, 0x40157f1ccefc0a60},
			csma: []uint64{0x400afc0a60647d11, 0x400c9cbd821dc3a8},
		},
		2: {
			cmap: []uint64{0x40139f559b3d07c8, 0x401a353f7ced9169},
			csma: []uint64{0x400b224515fb5b9c, 0x400c5f92c5f92c60},
		},
	}
	for seed, w := range want {
		opt := Quick(seed)
		opt.Duration = 8 * sim.Second
		opt.Warmup = 2 * sim.Second
		opt.Meshes = 2
		res := Mesh(testbed(t, seed), opt)
		check := func(name string, got []float64, want []uint64) {
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d scores, want %d", seed, name, len(got), len(want))
			}
			for i, v := range got {
				if math.Float64bits(v) != want[i] {
					t.Errorf("seed %d %s[%d] = %#x (%v), want %#x (%v)",
						seed, name, i, math.Float64bits(v), v, want[i], math.Float64frombits(want[i]))
				}
			}
		}
		check("CMAP", res.CMAP.Values(), w.cmap)
		check("CSMA", res.CSMA.Values(), w.csma)
	}
}
