package topo

import (
	"testing"

	"repro/internal/sim"
)

func testbed(t *testing.T) *Testbed {
	t.Helper()
	return NewTestbed(50, 1)
}

func TestCensusMatchesPaper(t *testing.T) {
	// §5.1: of the node pairs with any connectivity, ≈68% have PRR < 0.1,
	// ≈12% in (0.1, 1), ≈20% PRR = 1; mean degree ≈15, median ≈17 over the
	// usable links. The generated testbed must land in the same regime.
	for seed := uint64(1); seed <= 3; seed++ {
		tb := NewTestbed(50, seed)
		c := tb.Census()
		if c.ConnectedPairs < 1200 || c.ConnectedPairs > 2450 {
			t.Errorf("seed %d: %d connected pairs, want ≈1800–2200", seed, c.ConnectedPairs)
		}
		if c.FracLow < 0.5 || c.FracLow > 0.8 {
			t.Errorf("seed %d: low-PRR fraction = %.2f, want ≈0.68", seed, c.FracLow)
		}
		if c.FracMid < 0.04 || c.FracMid > 0.25 {
			t.Errorf("seed %d: mid-PRR fraction = %.2f, want ≈0.12", seed, c.FracMid)
		}
		if c.FracFull < 0.1 || c.FracFull > 0.35 {
			t.Errorf("seed %d: full-PRR fraction = %.2f, want ≈0.20", seed, c.FracFull)
		}
		if c.MeanDegree < 8 || c.MeanDegree > 22 {
			t.Errorf("seed %d: mean degree = %.1f, want ≈15", seed, c.MeanDegree)
		}
	}
}

func TestTestbedDeterministic(t *testing.T) {
	a := NewTestbed(50, 7)
	b := NewTestbed(50, 7)
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("same-seed testbeds placed nodes differently")
		}
	}
	if a.RSS[3][9] != b.RSS[3][9] || a.PRR[3][9] != b.PRR[3][9] {
		t.Error("same-seed testbeds measured links differently")
	}
	c := NewTestbed(50, 8)
	if a.RSS[3][9] == c.RSS[3][9] {
		t.Error("different seeds produced identical channels (suspicious)")
	}
}

func TestLinkDefinitions(t *testing.T) {
	tb := testbed(t)
	potential, inRange := 0, 0
	for a := 0; a < tb.N; a++ {
		for b := 0; b < tb.N; b++ {
			if tb.PotentialLink(a, b) {
				potential++
				if !tb.InRange(a, b) {
					t.Fatalf("potential link (%d,%d) not in-range; definitions inconsistent", a, b)
				}
				if tb.PRR[a][b] <= 0.9 || tb.PRR[b][a] <= 0.9 {
					t.Fatalf("potential link (%d,%d) with PRR %.2f/%.2f", a, b, tb.PRR[a][b], tb.PRR[b][a])
				}
			}
			if tb.InRange(a, b) {
				inRange++
			}
		}
	}
	if potential == 0 {
		t.Fatal("testbed has no potential transmission links")
	}
	if inRange < potential {
		t.Error("in-range links fewer than potential links")
	}
	if tb.InRange(3, 3) || tb.PotentialLink(3, 3) {
		t.Error("self links must be excluded")
	}
	if tb.SignalP10() >= tb.SignalP90() {
		t.Error("signal percentiles inverted")
	}
}

func TestExposedPairsSatisfyConstraints(t *testing.T) {
	tb := testbed(t)
	rng := sim.NewRNG(5)
	pairs := tb.ExposedPairs(rng, 50)
	if len(pairs) < 20 {
		t.Fatalf("found only %d exposed pairs, want ≥20", len(pairs))
	}
	for _, p := range pairs {
		if !distinct(p.A.Src, p.A.Dst, p.B.Src, p.B.Dst) {
			t.Fatal("pair reuses a node")
		}
		if !tb.InRange(p.A.Src, p.B.Src) {
			t.Error("senders not in range of each other (§5.2 constraint i)")
		}
		if !tb.PotentialLink(p.A.Src, p.A.Dst) || !tb.PotentialLink(p.B.Src, p.B.Dst) {
			t.Error("sender-receiver pair not a potential transmission link (constraint ii)")
		}
		if !tb.StrongSignal(p.A.Src, p.A.Dst) || !tb.StrongSignal(p.B.Src, p.B.Dst) {
			t.Error("sender→receiver signal not in top decile (constraint iii)")
		}
		for _, x := range [][2]int{{p.A.Src, p.B.Dst}, {p.B.Src, p.A.Dst}, {p.A.Dst, p.B.Dst}, {p.A.Src, p.B.Src}} {
			if tb.StrongSignal(x[0], x[1]) || tb.StrongSignal(x[1], x[0]) {
				t.Error("cross pair has top-decile signal (constraint iv)")
			}
		}
	}
}

func TestInRangePairsSatisfyConstraints(t *testing.T) {
	tb := testbed(t)
	pairs := tb.InRangePairs(sim.NewRNG(6), 50)
	if len(pairs) != 50 {
		t.Fatalf("found %d in-range pairs, want 50", len(pairs))
	}
	for _, p := range pairs {
		if !tb.InRange(p.A.Src, p.B.Src) {
			t.Error("senders not in range")
		}
		if !tb.PotentialLink(p.A.Src, p.A.Dst) || !tb.PotentialLink(p.B.Src, p.B.Dst) {
			t.Error("links not potential transmission links")
		}
	}
}

func TestHiddenPairsSatisfyConstraints(t *testing.T) {
	tb := testbed(t)
	pairs := tb.HiddenPairs(sim.NewRNG(7), 50)
	if len(pairs) < 20 {
		t.Fatalf("found only %d hidden pairs", len(pairs))
	}
	for _, p := range pairs {
		if tb.InRange(p.A.Src, p.B.Src) {
			t.Error("hidden senders are in range")
		}
		if !tb.PotentialLink(p.A.Src, p.B.Dst) || !tb.PotentialLink(p.B.Src, p.A.Dst) {
			t.Error("receivers lack potential links to both senders (§5.5)")
		}
	}
}

func TestHiddenInterfererTriples(t *testing.T) {
	tb := testbed(t)
	triples := tb.HiddenInterfererTriples(sim.NewRNG(8), 500)
	if len(triples) != 500 {
		t.Fatalf("got %d triples, want 500", len(triples))
	}
	for _, tr := range triples {
		if !tb.PotentialLink(tr.Src, tr.Dst) {
			t.Error("triple S→R not a potential link")
		}
		if tr.Interferer == tr.Src || tr.Interferer == tr.Dst {
			t.Error("interferer coincides with S or R")
		}
	}
}

func TestAPRegions(t *testing.T) {
	tb := testbed(t)
	cells := tb.APRegions()
	if len(cells) < 4 {
		t.Fatalf("only %d AP cells, want ≥4 of 6", len(cells))
	}
	for i, c := range cells {
		if len(c.Clients) == 0 {
			t.Errorf("cell %d has no clients", i)
		}
		for _, cl := range c.Clients {
			if !tb.PotentialLink(c.AP, cl) {
				t.Errorf("client %d lacks potential link to AP %d", cl, c.AP)
			}
		}
		for j := i + 1; j < len(cells); j++ {
			if tb.InRange(c.AP, cells[j].AP) {
				t.Errorf("APs %d and %d are in range of each other (§5.6 forbids)", c.AP, cells[j].AP)
			}
		}
	}
}

func TestMeshTopologies(t *testing.T) {
	tb := testbed(t)
	meshes := tb.MeshTopologies(sim.NewRNG(9), 10, 3)
	if len(meshes) < 5 {
		t.Fatalf("found only %d meshes", len(meshes))
	}
	for _, m := range meshes {
		if len(m.Relays) != 3 || len(m.Leaves) != 3 {
			t.Fatal("mesh shape wrong")
		}
		all := append([]int{m.Source}, append(append([]int{}, m.Relays...), m.Leaves...)...)
		if !distinct(all...) {
			t.Error("mesh reuses nodes")
		}
		for i, a := range m.Relays {
			if !tb.PotentialLink(m.Source, a) {
				t.Error("S→relay not potential")
			}
			if !tb.PotentialLink(a, m.Leaves[i]) {
				t.Error("relay→leaf not potential")
			}
			if tb.PotentialLink(m.Source, m.Leaves[i]) {
				t.Error("leaf directly reachable from source; not a two-hop topology")
			}
		}
	}
}

func TestBuildMediumMatchesMeasurement(t *testing.T) {
	tb := testbed(t)
	sched := sim.NewScheduler()
	m := tb.Build(sched, sim.NewRNG(3))
	if m.NodeCount() != 50 {
		t.Fatalf("medium has %d nodes", m.NodeCount())
	}
	// The medium's channel must agree with the testbed's measurement pass.
	for a := 0; a < 5; a++ {
		for b := 45; b < 50; b++ {
			got := m.RxPowerDBm(a, b)
			want := tb.RSS[a][b]
			if want < tb.Params.DeliveryFloorDBm {
				continue
			}
			if diff := got - want; diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("RxPower(%d,%d) = %v, testbed says %v", a, b, got, want)
			}
		}
	}
}

// TestCheckFlows pins what a valid flow set is: links between two
// distinct nodes in range, at most one flow out of and one flow into
// each node, while one node may send a flow and receive another.
func TestCheckFlows(t *testing.T) {
	cases := []struct {
		name  string
		flows []Link
		ok    bool
	}{
		{"empty", nil, true},
		{"disjoint pair", []Link{{0, 1}, {2, 3}}, true},
		{"relay", []Link{{0, 1}, {1, 2}}, true},
		{"swapped pair", []Link{{0, 1}, {1, 0}}, true},
		{"self loop", []Link{{3, 3}}, false},
		{"negative node", []Link{{-1, 2}}, false},
		{"node past n", []Link{{0, 4}}, false},
		{"two from one sender", []Link{{0, 1}, {0, 2}}, false},
		{"two into one receiver", []Link{{0, 2}, {1, 2}}, false},
		{"duplicate flow", []Link{{0, 1}, {0, 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckFlows(4, tc.flows); (err == nil) != tc.ok {
				t.Errorf("CheckFlows(4, %v) = %v, want ok=%v", tc.flows, err, tc.ok)
			}
		})
	}
}
