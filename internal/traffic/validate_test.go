package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestValidateBounds pins Validate's bounds: non-finite and
// non-positive rates are refused, and so is any rate whose mean gap
// between arrivals falls under the 1 ns clock tick or over
// maxMeanGapNs, on either side of each edge, and any churn mean over
// maxMeanGapNs. Every spec a benchmark workload, a cmapsim
// run or a load sweep builds is accepted, so the bounds change no
// existing workload.
func TestValidateBounds(t *testing.T) {
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	rejected := []Spec{
		{Kind: Poisson, PacketsPerSec: math.NaN()},
		{Kind: Poisson, PacketsPerSec: math.Inf(1)},
		{Kind: CBR, PacketsPerSec: math.Inf(-1)},
		{Kind: Poisson, PacketsPerSec: 0},
		{Kind: CBR, PacketsPerSec: -1},
		{Kind: Poisson, PacketsPerSec: next(1e9)},
		{Kind: OnOff, PacketsPerSec: 2e9},
		{Kind: Poisson, PacketsPerSec: 1e-300},
		{Kind: CBR, PacketsPerSec: 1e9 / (1 << 57)},
		// Means whose draws could overflow the clock, just past the
		// bound and at what cmapsim -churn 1000000h sets.
		{Kind: Poisson, PacketsPerSec: 100, UpMean: 1<<56 + 1, DownMean: sim.Second},
		{Kind: Poisson, PacketsPerSec: 100, UpMean: sim.Second, DownMean: 1<<56 + 1},
		{Kind: Poisson, PacketsPerSec: 100, UpMean: 3.6e18, DownMean: 3.6e18},
	}
	for _, s := range rejected {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: accepted, want an error", s)
		}
	}

	churn := Spec{UpMean: 200 * sim.Millisecond, DownMean: 200 * sim.Millisecond}
	accepted := []Spec{
		{},                                  // saturated: no rate at all
		{Kind: Poisson, PacketsPerSec: 1e9}, // the 1 ns edges themselves
		{Kind: CBR, PacketsPerSec: 1e9 / (1 << 56)},
		{Kind: CBR, PacketsPerSec: 100, UpMean: 1 << 56, DownMean: 1 << 56},
		PoissonAt(1e5), // bench's arrival-path unit
		Spec{Kind: Poisson, UpMean: churn.UpMean, DownMean: churn.DownMean}.WithOfferedMbps(1, 1400), // mobile_churn
	}
	// cmapsim's -traffic kinds at its default -load, with and without
	// -churn, and every kind over the sweep and analytic-screen loads.
	for _, kind := range []Kind{CBR, Poisson, OnOff} {
		withChurn := churn
		withChurn.Kind = kind
		accepted = append(accepted, Spec{Kind: kind}.WithOfferedMbps(2, 1400), withChurn.WithOfferedMbps(2, 1400))
		for _, load := range []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8, 10, 12, 16} {
			accepted = append(accepted, Spec{Kind: kind}.WithOfferedMbps(load, 1400))
		}
	}
	for _, s := range accepted {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

// FuzzTrafficSpec: on any string ParseKind either errors or yields a
// kind whose name parses back to it, and any spec Validate accepts
// builds a Source without panicking whose mean gap between arrivals is
// at least 1 ns, and whose longest exponential draw of either churn
// mean (-ln 2^-53 ≈ 36.7 means) still fits the clock.
func FuzzTrafficSpec(f *testing.F) {
	f.Add("poisson", 150.0, int64(0), int64(0))
	f.Add("cbr", 1e9, int64(1<<56), int64(1<<56))
	f.Add("onoff", 2e9, int64(1<<56+1), int64(-1))
	f.Add("bursty", math.NaN(), int64(0), int64(0))
	f.Add("sat", 1e300, int64(0), int64(0))
	f.Add("pigeon", 1e-300, int64(0), int64(0))
	f.Add("poisson", 100.0, int64(3.6e18), int64(3.6e18))
	f.Fuzz(func(t *testing.T, name string, pps float64, up, down int64) {
		kind, err := ParseKind(name)
		if err != nil {
			return
		}
		if back, err := ParseKind(kind.String()); err != nil || back != kind {
			t.Fatalf("ParseKind(%q) = %v, which does not parse back (%v, %v)", name, kind, back, err)
		}
		spec := Spec{Kind: kind, PacketsPerSec: pps, UpMean: sim.Time(up), DownMean: sim.Time(down)}
		if kind == Saturated || spec.Validate() != nil {
			return
		}
		src := NewSource(sim.NewScheduler(), sim.NewRNG(1), spec, &sinkQueue{}, 1)
		if !(src.meanGapNs >= 1) {
			t.Fatalf("%+v: accepted with a mean gap of %v ns", spec, src.meanGapNs)
		}
		for _, m := range []sim.Time{spec.UpMean, spec.DownMean} {
			if float64(m)*-math.Log(0x1p-53) >= math.MaxInt64 {
				t.Fatalf("%+v: accepted a mean of %d ns whose draws overflow the clock", spec, m)
			}
		}
	})
}
