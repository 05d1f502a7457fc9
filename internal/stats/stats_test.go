package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Errorf("Mean = %v", d.Mean())
	}
	if d.Median() != 3 {
		t.Errorf("Median = %v", d.Median())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if got := d.Std(); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Std = %v, want sqrt(2)", got)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Median() != 0 || d.Std() != 0 {
		t.Error("empty dist should return zeros")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var d Dist
	d.AddAll([]float64{0, 10})
	if got := d.Percentile(50); got != 5 {
		t.Errorf("p50 of {0,10} = %v, want 5", got)
	}
	if got := d.Percentile(25); got != 2.5 {
		t.Errorf("p25 = %v, want 2.5", got)
	}
	if d.Percentile(-5) != 0 || d.Percentile(200) != 10 {
		t.Error("percentile clamping failed")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var d Dist
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
			}
		}
		if d.N() == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return d.Percentile(pa) <= d.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeterWindow(t *testing.T) {
	m := Meter{Start: 40 * sim.Second, End: 100 * sim.Second}
	m.Record(10*sim.Second, 1400)  // before window: ignored
	m.Record(50*sim.Second, 1400)  // counted
	m.Record(100*sim.Second, 1400) // boundary: counted
	m.Record(101*sim.Second, 1400) // after: ignored
	if m.Packets() != 2 {
		t.Errorf("Packets = %d, want 2", m.Packets())
	}
	want := float64(2*1400*8) / 60 / 1e6
	if math.Abs(m.Mbps()-want) > 1e-12 {
		t.Errorf("Mbps = %v, want %v", m.Mbps(), want)
	}
}

func TestMeterDegenerate(t *testing.T) {
	m := Meter{Start: 5 * sim.Second, End: 5 * sim.Second}
	m.Record(5*sim.Second, 100)
	if m.Mbps() != 0 {
		t.Error("zero-width window should report 0 Mbps")
	}
}

func TestValuesCopy(t *testing.T) {
	var d Dist
	d.AddAll([]float64{2, 1})
	vs := d.Values()
	if vs[0] != 1 || vs[1] != 2 {
		t.Errorf("Values = %v, want sorted", vs)
	}
	vs[0] = 99
	if d.Min() == 99 {
		t.Error("Values must return a copy")
	}
}

// TestPercentileHandComputed pins the interpolation rule against values
// worked out by hand on {10, 20, 30, 40, 50}: rank = p/100·(n−1), with
// linear interpolation between the flanking order statistics.
func TestPercentileHandComputed(t *testing.T) {
	var d Dist
	d.AddAll([]float64{30, 10, 50, 20, 40})
	cases := []struct{ p, want float64 }{
		{0, 10},
		{25, 20},   // rank 1 exactly
		{50, 30},   // rank 2 exactly
		{90, 46},   // rank 3.6 → 40 + 0.6·(50−40)
		{95, 48},   // rank 3.8 → 40 + 0.8·10
		{99, 49.6}, // rank 3.96 → 40 + 0.96·10
		{100, 50},
		{10, 14}, // rank 0.4 → 10 + 0.4·10
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestJainHandComputed checks the fairness index against hand-computed
// values: equal shares give 1, one-flow-takes-all gives 1/n, and the
// worked example (Σx)²/(n·Σx²) = 36/(3·14) for {1,2,3}.
func TestJainHandComputed(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{7, 0, 0, 0}, 0.25},
		{[]float64{1, 2, 3}, 36.0 / 42.0},
		{[]float64{4, 1}, 25.0 / 34.0},
	}
	for _, c := range cases {
		if got := Jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			// Throughput-scale magnitudes only: (Σx)² must not overflow.
			if !math.IsNaN(v) && v >= 0 && v < 1e12 {
				xs = append(xs, v)
			}
		}
		j := Jain(xs)
		if len(xs) == 0 || j == 0 {
			return j == 0
		}
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 2 * sim.Second, End: 5 * sim.Second}
	for _, c := range []struct {
		t    sim.Time
		want bool
	}{
		{1 * sim.Second, false},
		{2 * sim.Second, true},
		{5 * sim.Second, true},
		{5*sim.Second + 1, false},
	} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if w.Seconds() != 3 {
		t.Errorf("Seconds = %v, want 3", w.Seconds())
	}
	if (Window{Start: 5, End: 5}).Seconds() != 0 {
		t.Error("degenerate window should report 0 seconds")
	}
}

// TestLatencyWarmupTruncation checks the latency recorder applies its
// window to the delivery instant and reports percentiles in ms.
func TestLatencyWarmupTruncation(t *testing.T) {
	l := Latency{W: Window{Start: 1 * sim.Second, End: 10 * sim.Second}}
	l.Record(500*sim.Millisecond, 4*sim.Millisecond) // warm-up: ignored
	l.Record(2*sim.Second, 10*sim.Millisecond)
	l.Record(3*sim.Second, 20*sim.Millisecond)
	l.Record(4*sim.Second, 30*sim.Millisecond)
	l.Record(11*sim.Second, 500*sim.Millisecond) // after window: ignored
	if l.N() != 3 {
		t.Fatalf("N = %d, want 3", l.N())
	}
	if got := l.P50(); got != 20 {
		t.Errorf("P50 = %v ms, want 20", got)
	}
	// Hand-computed on {10,20,30}: rank 1.9 → 20 + 0.9·10 = 29.
	if got := l.P95(); math.Abs(got-29) > 1e-12 {
		t.Errorf("P95 = %v ms, want 29", got)
	}
	if got := l.P99(); math.Abs(got-29.8) > 1e-12 {
		t.Errorf("P99 = %v ms, want 29.8", got)
	}
	var pooled Latency
	pooled.W = Window{End: 1} // Merge bypasses the window; samples were already gated
	pooled.Merge(&l)
	pooled.Merge(nil)
	if pooled.N() != 3 || pooled.P50() != 20 {
		t.Errorf("Merge lost samples: N=%d P50=%v", pooled.N(), pooled.P50())
	}
}

func TestFormatCDFs(t *testing.T) {
	var a, b Dist
	a.AddAll([]float64{1, 2, 3})
	b.AddAll([]float64{4, 5, 6})
	out := FormatCDFs([]string{"alpha", "beta"}, []*Dist{&a, &b})
	if len(out) == 0 {
		t.Fatal("empty output")
	}
	// Three lines: header + two series.
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Errorf("FormatCDFs produced %d lines, want 3", lines)
	}
}
