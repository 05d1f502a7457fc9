package cmap

import (
	"testing"
	"time"

	"repro/internal/mac"
)

// exposedLoss is the canonical Figure 1 exposed-terminal loss matrix:
// S1(0)→R1(1), S2(2)→R2(3); senders hear each other, cross links are
// below sensitivity.
var exposedLoss = [][]float64{
	{0, 68, 75, 108},
	{68, 0, 108, 300},
	{75, 108, 0, 68},
	{108, 300, 68, 0},
}

func TestPublicAPIExposedTerminals(t *testing.T) {
	nw := NewLossNetwork(exposedLoss, 1)
	s1 := nw.AddCMAP(0)
	r1 := nw.AddCMAP(1)
	s2 := nw.AddCMAP(2)
	r2 := nw.AddCMAP(3)
	r1.Measure(4*time.Second, 12*time.Second)
	r2.Measure(4*time.Second, 12*time.Second)
	s1.Saturate(1)
	s2.Saturate(3)
	nw.Run(12 * time.Second)
	agg := r1.GoodputMbps() + r2.GoodputMbps()
	if agg < 9.0 {
		t.Errorf("CMAP exposed aggregate = %.2f Mb/s, want ≈2× single link", agg)
	}
	if s1.Stats().Defers != 0 {
		t.Error("exposed sender deferred")
	}
}

func TestPublicAPIDCFBaseline(t *testing.T) {
	nw := NewLossNetwork(exposedLoss, 2)
	s1 := nw.AddDCF(0)
	r1 := nw.AddDCF(1)
	s2 := nw.AddDCF(2)
	r2 := nw.AddDCF(3)
	r1.Measure(2*time.Second, 8*time.Second)
	r2.Measure(2*time.Second, 8*time.Second)
	s1.Saturate(1)
	s2.Saturate(3)
	nw.Run(8 * time.Second)
	agg := r1.GoodputMbps() + r2.GoodputMbps()
	// Carrier sense serialises the exposed senders.
	if agg > 7.0 {
		t.Errorf("DCF exposed aggregate = %.2f Mb/s, expected serialisation near 5.5", agg)
	}
	if agg < 4.0 {
		t.Errorf("DCF exposed aggregate = %.2f Mb/s, too low", agg)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	nw := NewLossNetwork(exposedLoss, 3)
	s := nw.AddCMAP(0, WithRate(12), WithPayload(1000), WithVirtualPacket(16), WithWindow(4))
	r := nw.AddDCF(1, WithCarrierSense(false), WithLinkACKs(false))
	_ = r
	if s.ID() != 0 {
		t.Error("ID mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid rate did not panic")
		}
	}()
	nw.AddCMAP(2, WithRate(7))
}

// TestPublicAPIOptionBounds pins one row per setting the façade once
// accepted: payloads of −5 and 70000 bytes ran through a wrapped uint16
// length field, a window of −1 and a virtual packet of 0 silently ran
// the defaults, and 70000 packets per virtual packet wrapped Data.Index.
// Each must now panic with the registry's typed error.
func TestPublicAPIOptionBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"payload=-5", WithPayload(-5)},
		{"payload=70000", WithPayload(70000)},
		{"win=-1", WithWindow(-1)},
		{"vpkt=0", WithVirtualPacket(0)},
		{"vpkt=70000", WithVirtualPacket(70000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if _, ok := recover().(*mac.SpecError); !ok {
					t.Error("did not panic with a *mac.SpecError")
				}
			}()
			NewLossNetwork([][]float64{{0, 70}, {70, 0}}, 1).AddCMAP(0, tc.opt)
		})
	}
}

func TestPublicAPIFiniteTrafficAndDelivery(t *testing.T) {
	nw := NewLossNetwork([][]float64{
		{0, 70},
		{70, 0},
	}, 4)
	tx := nw.AddCMAP(0)
	rx := nw.AddCMAP(1)
	var got int
	rx.OnDeliver(func(src int, _ uint32, _ time.Duration) {
		if src == 0 {
			got++
		}
	})
	tx.Send(1, 100)
	nw.Run(5 * time.Second)
	if got != 100 {
		t.Errorf("delivered %d of 100", got)
	}
	if !tx.Idle() {
		t.Error("sender not idle after drain")
	}
	if rx.Stats().Delivered != 100 {
		t.Errorf("Stats().Delivered = %d", rx.Stats().Delivered)
	}
}

func TestPublicAPITestbedNetwork(t *testing.T) {
	nw := NewTestbedNetwork(50, 7)
	if nw.NodeCount() != 50 {
		t.Fatalf("NodeCount = %d", nw.NodeCount())
	}
	tb := nw.Testbed()
	if tb == nil {
		t.Fatal("Testbed() nil")
	}
	// Drive one saturated flow over the strongest link.
	best, bestRSS := [2]int{-1, -1}, -1000.0
	for a := 0; a < 50; a++ {
		for b := 0; b < 50; b++ {
			if tb.PotentialLink(a, b) && tb.RSS[a][b] > bestRSS {
				bestRSS, best = tb.RSS[a][b], [2]int{a, b}
			}
		}
	}
	tx := nw.AddCMAP(best[0])
	rx := nw.AddCMAP(best[1])
	rx.Measure(2*time.Second, 6*time.Second)
	tx.Saturate(best[1])
	nw.Run(6 * time.Second)
	if g := rx.GoodputMbps(); g < 4.5 {
		t.Errorf("testbed best-link goodput = %.2f Mb/s", g)
	}
	if nw.RxPowerDBm(best[0], best[1]) != bestRSS {
		t.Error("RxPowerDBm disagrees with testbed measurement")
	}
}

func TestPublicAPIGeometricNetwork(t *testing.T) {
	nw := NewNetwork([]Point{{0, 0}, {5, 0}, {40, 0}, {45, 0}}, 9)
	if nw.NodeCount() != 4 {
		t.Fatal("NodeCount wrong")
	}
	tx := nw.AddCMAP(0)
	rx := nw.AddCMAP(1)
	rx.Measure(time.Second, 4*time.Second)
	tx.Saturate(1)
	nw.Run(4 * time.Second)
	if rx.GoodputMbps() < 4.0 {
		t.Errorf("5 m link goodput = %.2f Mb/s", rx.GoodputMbps())
	}
}

func TestPublicAPIBroadcast(t *testing.T) {
	nw := NewLossNetwork([][]float64{
		{0, 68, 70},
		{68, 0, 80},
		{70, 80, 0},
	}, 11)
	src := nw.AddCMAP(0)
	a := nw.AddCMAP(1)
	b := nw.AddCMAP(2)
	a.Measure(time.Second, 4*time.Second)
	b.Measure(time.Second, 4*time.Second)
	src.BroadcastTo([]int{1, 2}, true, 0)
	nw.Run(4 * time.Second)
	if a.GoodputMbps() < 4 || b.GoodputMbps() < 4 {
		t.Errorf("broadcast goodput %.2f / %.2f", a.GoodputMbps(), b.GoodputMbps())
	}
}

func TestPublicAPIGuards(t *testing.T) {
	nw := NewLossNetwork(exposedLoss, 13)
	nw.AddCMAP(0)
	for _, fn := range []func(){
		func() { nw.AddCMAP(0) },  // duplicate
		func() { nw.AddCMAP(99) }, // out of range
		func() { nw.AddDCF(-1) },  // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	if nw.Station(0) == nil || nw.Station(3) != nil {
		t.Error("Station lookup wrong")
	}
}

func TestPublicAPIWindowOptionChangesBehaviour(t *testing.T) {
	// Smoke: WithWindow(1) builds a station whose window really is one
	// virtual packet (observable via sustained single-link goodput still
	// working — stop-and-wait at vpkt granularity).
	nw := NewLossNetwork([][]float64{
		{0, 70},
		{70, 0},
	}, 15)
	tx := nw.AddCMAP(0, WithWindow(1))
	rx := nw.AddCMAP(1)
	rx.Measure(time.Second, 5*time.Second)
	tx.Saturate(1)
	nw.Run(5 * time.Second)
	if rx.GoodputMbps() < 4.0 {
		t.Errorf("win=1 clean-link goodput = %.2f", rx.GoodputMbps())
	}
}

func TestPublicAPIDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		nw := NewLossNetwork(exposedLoss, 21)
		s1 := nw.AddCMAP(0)
		r1 := nw.AddCMAP(1)
		s2 := nw.AddCMAP(2)
		r2 := nw.AddCMAP(3)
		r1.Measure(2*time.Second, 6*time.Second)
		r2.Measure(2*time.Second, 6*time.Second)
		s1.Saturate(1)
		s2.Saturate(3)
		nw.Run(6 * time.Second)
		return r1.GoodputMbps(), r2.GoodputMbps()
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Errorf("same seed produced different results: (%v,%v) vs (%v,%v)", a1, a2, b1, b2)
	}
	// A different seed must (generically) differ somewhere in the run.
	nw := NewLossNetwork(exposedLoss, 22)
	s1 := nw.AddCMAP(0)
	r1 := nw.AddCMAP(1)
	r1.Measure(2*time.Second, 6*time.Second)
	s1.Saturate(1)
	nw.Run(6 * time.Second)
	if nw.Now() != 6*time.Second {
		t.Errorf("Now() = %v, want 6s", nw.Now())
	}
}
