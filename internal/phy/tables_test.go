package phy

import (
	"math"
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
)

// lnBitSuccessExact is the quantity the tables approximate, computed
// through the exact Erfc-based formula.
func lnBitSuccessExact(mod Modulation, g float64) float64 {
	return math.Log1p(-berLinear(mod, g))
}

// TestTableBERMatchesExact is the bounded-error contract of the fast
// path: across every rate and the full operating range — from far below
// sensitivity to beyond the capture margin — the table's per-bit
// log-survival probability must track the exact Erfc-based value.
//
// The tolerances are tiered by where error can matter. Where the BER is
// large enough to influence a frame (≥ 1e-6), the relative error must
// be under 1%. In the deep tail the interpolation error grows relative
// to the (vanishing) exact value, so down to 1e-15 we allow 10% — at
// which point the absolute effect on even a 100 kb frame is < 1e-10.
// Below that only the packet-level bound applies: the implied
// 1424-byte-frame PER must agree within 1e-3 everywhere.
func TestTableBERMatchesExact(t *testing.T) {
	bits := float64(PayloadBits(1424))
	for _, r := range Rates() {
		for ebn0DB := -45.0; ebn0DB <= 40.0; ebn0DB += 0.05 {
			g := radio.FromDB(ebn0DB)
			exact := lnBitSuccessExact(r.Mod, g)
			got := lnBitSuccess(r.Mod, g)
			berExact := -math.Expm1(exact)
			err := math.Abs(got - exact)
			switch {
			case berExact >= 1e-6:
				if err > 0.01*math.Abs(exact) {
					t.Fatalf("%v: lnP1 at %.2f dB (ber %.3g) = %g, exact %g (rel err %.3g > 1%%)",
						r, ebn0DB, berExact, got, exact, err/math.Abs(exact))
				}
			case berExact >= 1e-15:
				if err > 0.10*math.Abs(exact) {
					t.Fatalf("%v: lnP1 at %.2f dB (ber %.3g) = %g, exact %g (rel err %.3g > 10%%)",
						r, ebn0DB, berExact, got, exact, err/math.Abs(exact))
				}
			}
			perExact := -math.Expm1(bits * exact)
			perGot := -math.Expm1(bits * got)
			if d := math.Abs(perGot - perExact); d > 1e-3 {
				t.Fatalf("%v: 1424B PER at %.2f dB = %g, exact %g (Δ %.3g > 1e-3)",
					r, ebn0DB, perGot, perExact, d)
			}
		}
	}
}

// TestTableLockProbMatchesExact validates the preamble-acquisition
// table against LockProbability across the same sweep, including the
// multiplier folding a radio performs (bandwidth conversion and coding
// gain moved from the dB domain into a linear factor).
func TestTableLockProbMatchesExact(t *testing.T) {
	pre := RateByID(Rate6Mbps)
	k := channelBandwidthMHz / pre.Mbps * radio.FromDB(pre.codingGainDB)
	for sinrDB := -45.0; sinrDB <= 40.0; sinrDB += 0.05 {
		exact := LockProbability(sinrDB)
		got := lockProbLinear(radio.FromDB(sinrDB) * k)
		if d := math.Abs(got - exact); d > 1e-3 {
			t.Fatalf("lock probability at %.2f dB = %g, exact %g (Δ %.3g > 1e-3)",
				sinrDB, got, exact, d)
		}
	}
}

// TestTableMonotoneAndClamped pins the structural properties the radio
// relies on: per-bit survival and lock probability never decrease with
// Eb/N0, and the out-of-range clamps hold (flat below the table floor,
// exact zero-error/certain-lock above the ceiling).
func TestTableMonotoneAndClamped(t *testing.T) {
	for mod := BPSK; mod <= QAM64; mod++ {
		prev := math.Inf(-1)
		for ebn0DB := -50.0; ebn0DB <= 45.0; ebn0DB += 0.01 {
			v := lnBitSuccess(mod, radio.FromDB(ebn0DB))
			if v < prev-1e-18 {
				t.Fatalf("mod %v: lnBitSuccess decreased at %v dB", mod, ebn0DB)
			}
			if v > 0 {
				t.Fatalf("mod %v: positive log-probability %v at %v dB", mod, v, ebn0DB)
			}
			prev = v
		}
	}
	if v := lnBitSuccess(BPSK, tableGMin/2); v != berTables[BPSK][0] {
		t.Errorf("below-floor lookup = %v, want the floor value %v", v, berTables[BPSK][0])
	}
	if v := lnBitSuccess(BPSK, tableGMax*2); v != 0 {
		t.Errorf("above-ceiling lookup = %v, want 0", v)
	}
	prev := -1.0
	for ebn0DB := -50.0; ebn0DB <= 45.0; ebn0DB += 0.01 {
		p := lockProbLinear(radio.FromDB(ebn0DB))
		if p < prev-1e-18 {
			t.Fatalf("lock probability decreased at %v dB", ebn0DB)
		}
		if p < 0 || p > 1 {
			t.Fatalf("lock probability %v out of [0,1] at %v dB", p, ebn0DB)
		}
		prev = p
	}
	if p := lockProbLinear(tableGMax * 2); p != 1 {
		t.Errorf("above-ceiling lock probability = %v, want 1", p)
	}
}

// TestTotalMWResetsWhenQuiet pins the drift fix: after every signal
// ends, the incremental power accumulator must be exactly zero — not
// merely small — even when the add/subtract order is chosen to leave
// floating-point residue.
func TestTotalMWResetsWhenQuiet(t *testing.T) {
	r, _, _, sched := testRadio(t, DefaultParams())
	// 0.1 + 0.2 - 0.1 - 0.2 != 0 in float64; three overlapping signals
	// removed in arrival order leave classic residue without the reset.
	powers := []float64{1e-7, 2e-7, 3e-7}
	txs := make([]*Transmission, len(powers))
	for i, p := range powers {
		txs[i] = testTx(uint64(i+1), i+1)
		r.SignalStart(txs[i], p)
	}
	sched.Run(10 * sim.Microsecond)
	for _, tx := range txs {
		r.SignalEnd(tx)
	}
	if r.ActiveSignals() != 0 {
		t.Fatalf("%d active signals left", r.ActiveSignals())
	}
	if r.TotalMW != 0 {
		t.Errorf("totalMW = %g after all signals ended, want exactly 0", r.TotalMW)
	}
}

// TestExactMathModeMatchesTables is the radio-level spot check of the
// two code paths: at SINRs where the decision is not borderline, the
// exact and table radios must agree on every decode outcome when driven
// with identical RNG streams. (Figure-level statistical equivalence
// lives in internal/experiments.)
func TestExactMathModeMatchesTables(t *testing.T) {
	run := func(exact bool) RadioStats {
		p := DefaultParams()
		p.ExactReceptionMath = exact
		r, _, _, sched := testRadio(t, p)
		for i := 1; i <= 40; i++ {
			tx := testTx(uint64(i), i)
			powDBm := -90.0 + 2*float64(i%20) // sweep -90..-52 dBm
			r.SignalStart(tx, radio.DBmToMW(powDBm))
			sched.Run(sched.Now() + 500*sim.Microsecond)
			r.SignalEnd(tx)
		}
		return r.Stats()
	}
	if fast, slow := run(false), run(true); fast != slow {
		t.Errorf("stats diverged between table and exact math:\n  table %+v\n  exact %+v", fast, slow)
	}
}

// BenchmarkBitErrorRate guards the per-segment win at its source: the
// exact Erfc/dB chain versus the table interpolation.
func BenchmarkBitErrorRate(b *testing.B) {
	r := RateByID(Rate54Mbps)
	k := channelBandwidthMHz / r.Mbps * radio.FromDB(r.codingGainDB)
	b.Run("exact", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += BitErrorRate(r, float64(i%40))
		}
		benchSink = sink
	})
	b.Run("table", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += lnBitSuccess(r.Mod, radio.FromDB(float64(i%40))*k)
		}
		benchSink = sink
	})
}

// BenchmarkLockProbability compares preamble acquisition the same way.
func BenchmarkLockProbability(b *testing.B) {
	pre := RateByID(Rate6Mbps)
	k := channelBandwidthMHz / pre.Mbps * radio.FromDB(pre.codingGainDB)
	b.Run("exact", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += LockProbability(float64(i % 40))
		}
		benchSink = sink
	})
	b.Run("table", func(b *testing.B) {
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += lockProbLinear(radio.FromDB(float64(i%40)) * k)
		}
		benchSink = sink
	})
}

var benchSink float64

// BenchmarkCloseSegment measures the full per-segment accounting a
// locked radio performs per interference edge, on both math paths.
func BenchmarkCloseSegment(b *testing.B) {
	bench := func(exact bool) func(b *testing.B) {
		return func(b *testing.B) {
			p := DefaultParams()
			p.ExactReceptionMath = exact
			sched := sim.NewScheduler()
			r := NewRadio(0, p, sched, sim.NewRNG(1), &stubChannel{})
			tx := testTx(1, 1)
			r.SignalStart(tx, radio.DBmToMW(-70))
			if r.Locked != tx {
				b.Fatal("radio did not lock the benchmark frame")
			}
			r.TotalMW += radio.DBmToMW(-80) // a steady interferer
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				now += sim.Microsecond
				r.closeSegment(now)
			}
		}
	}
	b.Run("exact", bench(true))
	b.Run("table", bench(false))
}
