package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestRateTableComplete(t *testing.T) {
	rates := Rates()
	if len(rates) != 8 {
		t.Fatalf("rate table has %d entries, want 8", len(rates))
	}
	wantMbps := []float64{6, 9, 12, 18, 24, 36, 48, 54}
	for i, r := range rates {
		if r.Mbps != wantMbps[i] {
			t.Errorf("rate %d Mbps = %v, want %v", i, r.Mbps, wantMbps[i])
		}
		if r.ID != RateID(i) {
			t.Errorf("rate %d ID = %v", i, r.ID)
		}
		// BitsPerSymbol must equal Mbps × 4 µs symbol.
		if got := float64(r.BitsPerSymbol); got != r.Mbps*4 {
			t.Errorf("rate %v bits/symbol = %v, want %v", r.Mbps, got, r.Mbps*4)
		}
	}
}

func TestRateByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RateByID(99) did not panic")
		}
	}()
	RateByID(99)
}

func TestAirtime(t *testing.T) {
	r6 := RateByID(Rate6Mbps)
	// 1424-byte frame at 6 Mb/s: 22 + 11392 bits = 11414 bits → 476 symbols
	// → 20 µs + 1904 µs.
	got := Airtime(r6, 1424)
	want := 20*sim.Microsecond + 476*4*sim.Microsecond
	if got != want {
		t.Errorf("Airtime(6Mbps, 1424B) = %v, want %v", got, want)
	}
	// 54 Mb/s is much faster but has the same preamble.
	r54 := RateByID(Rate54Mbps)
	if a54 := Airtime(r54, 1424); a54 >= got || a54 <= PreambleTime {
		t.Errorf("Airtime(54Mbps) = %v out of expected range", a54)
	}
}

func TestAirtimeMonotonicInSize(t *testing.T) {
	r := RateByID(Rate12Mbps)
	prev := sim.Time(0)
	for bytes := 0; bytes < 3000; bytes += 100 {
		a := Airtime(r, bytes)
		if a < prev {
			t.Fatalf("airtime decreased at %d bytes", bytes)
		}
		prev = a
	}
}

func TestTimingConstants(t *testing.T) {
	if SlotTime != 9*sim.Microsecond || SIFS != 16*sim.Microsecond {
		t.Error("802.11a slot/SIFS constants wrong")
	}
	if DIFS != 34*sim.Microsecond {
		t.Errorf("DIFS = %v, want 34µs", DIFS)
	}
}

func TestBERDecreasingInSINR(t *testing.T) {
	for _, r := range Rates() {
		prev := 1.0
		for sinr := -10.0; sinr <= 40; sinr += 1 {
			ber := BitErrorRate(r, sinr)
			if ber > prev+1e-15 {
				t.Fatalf("%v: BER increased at %v dB", r, sinr)
			}
			if ber < 0 || ber > 0.5 {
				t.Fatalf("%v: BER %v out of range at %v dB", r, ber, sinr)
			}
			prev = ber
		}
	}
}

func TestPERThresholdOrdering(t *testing.T) {
	// The SINR needed for PER=0.5 on a 1424-byte frame must increase with
	// bit-rate (§5.8: higher rates need higher SINR).
	prev := math.Inf(-1)
	for _, r := range []RateID{Rate6Mbps, Rate12Mbps, Rate18Mbps, Rate24Mbps, Rate36Mbps, Rate54Mbps} {
		th := perThreshold(RateByID(r), 1424)
		if th <= prev {
			t.Errorf("PER threshold for %v = %v dB, not above previous %v", RateByID(r), th, prev)
		}
		prev = th
	}
}

// perThreshold finds the SINR where PER crosses 0.5 by bisection.
func perThreshold(r Rate, bytes int) float64 {
	lo, hi := -20.0, 60.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if PacketErrorRate(r, mid, bytes) > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestPERTransitionSharp(t *testing.T) {
	// The waterfall region (PER 0.9 → 0.1) should span only a few dB.
	for _, id := range []RateID{Rate6Mbps, Rate18Mbps, Rate54Mbps} {
		r := RateByID(id)
		th := perThreshold(r, 1424)
		if p := PacketErrorRate(r, th-2, 1424); p < 0.9 {
			t.Errorf("%v: PER at threshold-2dB = %v, want >0.9", r, p)
		}
		if p := PacketErrorRate(r, th+2, 1424); p > 0.1 {
			t.Errorf("%v: PER at threshold+2dB = %v, want <0.1", r, p)
		}
	}
}

func TestPERRealisticThresholds(t *testing.T) {
	// Calibration: with the default implementation loss applied (as radios
	// apply it), 6 Mb/s should decode long frames around 2–8 dB SINR
	// (commodity hardware needs ≈4–6 dB), and 54 Mb/s around 18–28 dB.
	th6 := perThreshold(RateByID(Rate6Mbps), 1424) + ImplementationLossDB
	if th6 < 2 || th6 > 8 {
		t.Errorf("6 Mb/s effective PER threshold = %v dB, want in [2,8]", th6)
	}
	th54 := perThreshold(RateByID(Rate54Mbps), 1424) + ImplementationLossDB
	if th54 < 18 || th54 > 28 {
		t.Errorf("54 Mb/s effective PER threshold = %v dB, want in [18,28]", th54)
	}
}

func TestPERSmallFramesMoreRobust(t *testing.T) {
	r := RateByID(Rate6Mbps)
	th := perThreshold(r, 1424)
	// A 26-byte header packet survives at SINR where a 1424-byte frame is even.
	big := PacketErrorRate(r, th, 1424)
	small := PacketErrorRate(r, th, 26)
	if small >= big {
		t.Errorf("small frame PER %v not below large frame PER %v", small, big)
	}
}

func TestPEREdgeCases(t *testing.T) {
	r := RateByID(Rate6Mbps)
	if p := PacketErrorRate(r, 60, 1424); p > 1e-9 {
		t.Errorf("PER at 60 dB = %v, want ≈0", p)
	}
	if p := PacketErrorRate(r, -20, 1424); p < 0.999999 {
		t.Errorf("PER at -20 dB = %v, want ≈1", p)
	}
	if p := PacketErrorRate(r, math.Inf(-1), 1424); p != 1 {
		t.Errorf("PER at -inf dB = %v, want 1", p)
	}
}

func TestIsolationPRR(t *testing.T) {
	r := RateByID(Rate6Mbps)
	// Strong link: PRR ≈ 1.
	if prr := IsolationPRR(r, -60, 1424); prr < 0.999 {
		t.Errorf("PRR at -60 dBm = %v, want ≈1", prr)
	}
	// Below sensitivity: 0.
	if prr := IsolationPRR(r, -93, 1424); prr != 0 {
		t.Errorf("PRR below sensitivity = %v, want 0", prr)
	}
	// Monotone in power.
	prev := -1.0
	for dbm := -95.0; dbm <= -50; dbm += 0.5 {
		prr := IsolationPRR(r, dbm, 1424)
		if prr < prev-1e-12 {
			t.Fatalf("PRR not monotone at %v dBm", dbm)
		}
		prev = prr
	}
}

func TestModulationString(t *testing.T) {
	if BPSK.String() != "BPSK" || QAM64.String() != "64-QAM" {
		t.Error("modulation names wrong")
	}
	if Modulation(9).String() != "mod(9)" {
		t.Error("unknown modulation name wrong")
	}
}
