package traffic

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestValidateBounds pins Validate's rate bounds: non-finite and
// non-positive rates are refused, and so is any rate whose mean gap
// between arrival events falls under the 1 ns clock tick or over
// maxMeanGapNs, on either side of each edge. Every spec a benchmark
// workload, a cmapsim run or a load sweep builds is accepted, so the
// bounds change no existing workload.
func TestValidateBounds(t *testing.T) {
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	rejected := []Spec{
		{Kind: Poisson, PacketsPerSec: math.NaN()},
		{Kind: Poisson, PacketsPerSec: math.Inf(1)},
		{Kind: CBR, PacketsPerSec: math.Inf(-1)},
		{Kind: Poisson, PacketsPerSec: 0},
		{Kind: CBR, PacketsPerSec: -1},
		{Kind: Poisson, PacketsPerSec: next(1e9)},
		{Kind: Poisson, PacketsPerSec: next(8e9), Burst: 8},
		{Kind: OnOff, PacketsPerSec: 2e9},
		{Kind: Poisson, PacketsPerSec: 1e-300},
		{Kind: CBR, PacketsPerSec: 1e9 / (1 << 57)},
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
		{Kind: Poisson, PacketsPerSec: 8e9, Burst: 8},
		{Kind: CBR, PacketsPerSec: 1e9 / (1 << 56)},
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
// builds a Source without panicking whose mean gap between arrival
// events is at least 1 ns.
func FuzzTrafficSpec(f *testing.F) {
	f.Add("poisson", 150.0, 1, 0)
	f.Add("cbr", 1e9, 1, -1)
	f.Add("onoff", 8e9, 8, 16)
	f.Add("bursty", math.NaN(), 0, 0)
	f.Add("sat", 1e300, -3, 0)
	f.Add("pigeon", 1e-300, 2, 0)
	f.Fuzz(func(t *testing.T, name string, pps float64, burst, queueCap int) {
		kind, err := ParseKind(name)
		if err != nil {
			return
		}
		if back, err := ParseKind(kind.String()); err != nil || back != kind {
			t.Fatalf("ParseKind(%q) = %v, which does not parse back (%v, %v)", name, kind, back, err)
		}
		spec := Spec{Kind: kind, PacketsPerSec: pps, Burst: burst, QueueCap: queueCap}
		if kind == Saturated || spec.Validate() != nil {
			return
		}
		src := NewSource(sim.NewScheduler(), sim.NewRNG(1), spec, &sinkQueue{}, 1)
		if !(src.meanGapNs >= 1) {
			t.Fatalf("%+v: accepted with a mean gap of %v ns", spec, src.meanGapNs)
		}
	})
}
