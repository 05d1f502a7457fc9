package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// call is the tests' one-off event handler: the function it holds runs
// when the event fires.
type call func()

func (c call) HandleEvent(any) { c() }

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Post(30*Microsecond, call(func() { got = append(got, 3) }), nil)
	s.Post(10*Microsecond, call(func() { got = append(got, 1) }), nil)
	s.Post(20*Microsecond, call(func() { got = append(got, 2) }), nil)
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Microsecond {
		t.Errorf("Now() = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		s.Post(5*Millisecond, call(func() { got = append(got, i) }), nil)
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-deadline events fired out of order: got[%d] = %d", i, v)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.Post(1*Second, call(func() { fired++ }), nil)
	s.Post(2*Second, call(func() { fired++ }), nil)
	s.Post(3*Second, call(func() { fired++ }), nil)
	s.Run(2 * Second)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Now() != 2*Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
}

func TestSchedulerClockAdvancesToUntil(t *testing.T) {
	s := NewScheduler()
	s.Run(5 * Second)
	if s.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s with empty agenda", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := false
	var tm Timer
	s.ResetAt(&tm, 1*Second, call(func() { fired = true }), nil)
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop() on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() should return false")
	}
	s.RunAll()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	s.ResetAt(&tm, 1*Microsecond, call(func() {}), nil)
	s.RunAll()
	if tm.Active() {
		t.Error("timer still active after firing")
	}
	if tm.Stop() {
		t.Error("Stop() after fire should return false")
	}
}

// TestStaleTimerNeverCancelsReusedEntry: a handle whose event was
// stopped, or fired, names a slab entry the next event reuses. Only the
// seq tells the two apart, so the old handle must stay inactive and
// unable to cancel the new event.
func TestStaleTimerNeverCancelsReusedEntry(t *testing.T) {
	for _, fire := range []bool{false, true} {
		s := NewScheduler()
		rec := &orderRecorder{}
		var old, fresh Timer
		s.ResetAfter(&old, 10, rec, uint64(1))
		if fire {
			s.RunAll()
		} else if !old.Stop() {
			t.Fatal("Stop on a pending timer returned false")
		}
		s.ResetAfter(&fresh, 10, rec, uint64(2))
		if fresh.ev != old.ev {
			t.Fatalf("fired=%v: the new event took slab entry %d, not the freed %d; the test proves nothing", fire, fresh.ev, old.ev)
		}
		if old.Active() || old.Stop() {
			t.Fatalf("fired=%v: a stale handle reports its reused slab entry as its own", fire)
		}
		if !fresh.Active() {
			t.Fatalf("fired=%v: the new event's handle is inactive", fire)
		}
		s.RunAll()
		if n := len(rec.ids); n == 0 || rec.ids[n-1] != 2 {
			t.Fatalf("fired=%v: the new event did not fire (fired %v)", fire, rec.ids)
		}
	}
}

func TestTimerStopMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var got []int
	timers := make([]Timer, 10)
	for i := 0; i < 10; i++ {
		s.ResetAt(&timers[i], Time(i+1)*Millisecond, call(func() { got = append(got, i) }), nil)
	}
	timers[3].Stop()
	timers[7].Stop()
	s.RunAll()
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("stopped timer %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Errorf("fired %d events, want 8", len(got))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.Post(1*Second, call(func() {}), nil)
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Post(500*Millisecond, call(func() {}), nil)
}

func TestAfterNegativeClamps(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.PostAfter(-5, call(func() { fired = true }), nil)
	s.RunAll()
	if !fired {
		t.Error("PostAfter with negative duration should fire immediately")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.Post(1*Millisecond, call(func() {
		order = append(order, "a")
		s.PostAfter(1*Millisecond, call(func() { order = append(order, "c") }), nil)
	}), nil)
	s.Post(1500*Microsecond, call(func() { order = append(order, "b") }), nil)
	s.RunAll()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(3*time.Millisecond) != 3*Millisecond {
		t.Error("Duration(3ms) mismatch")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Stream(1)
	s2 := root.Stream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 1 and 2 produced %d identical values", same)
	}
	// Deriving the stream again must reproduce it.
	s1b := root.Stream(1)
	if s1b.Uint64() == s1.Uint64() {
		// s1 already advanced 100 values, so equality here would be chance;
		// instead check first value directly:
	}
	c, d := NewRNG(7).Stream(9), NewRNG(7).Stream(9)
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("re-derived stream diverged")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10) value %d count %d outside [700,1300]", v, c)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %v, want ≈0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %v, want ≈1", variance)
	}
}

func TestRNGDurationIn(t *testing.T) {
	r := NewRNG(6)
	lo, hi := 5*Millisecond, 20*Millisecond
	for i := 0; i < 1000; i++ {
		d := r.DurationIn(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("DurationIn = %v outside [%v,%v]", d, lo, hi)
		}
	}
	if r.DurationIn(hi, lo) != hi {
		t.Error("DurationIn with hi<=lo should return lo argument")
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHashPairSymmetricUse(t *testing.T) {
	// HashPair itself is ordered; callers pass (min,max). Verify determinism
	// and spread.
	if HashPair(3, 5) != HashPair(3, 5) {
		t.Error("HashPair not deterministic")
	}
	if HashPair(3, 5) == HashPair(5, 3) {
		t.Error("HashPair should distinguish argument order (callers canonicalise)")
	}
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 50; a++ {
		for b := a; b < 50; b++ {
			h := HashPair(a, b)
			if seen[h] {
				t.Fatalf("HashPair collision at (%d,%d)", a, b)
			}
			seen[h] = true
		}
	}
}

func TestSchedulerFiredCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 25; i++ {
		s.Post(Time(i)*Microsecond, call(func() {}), nil)
	}
	s.RunAll()
	if s.Fired() != 25 {
		t.Errorf("Fired() = %d, want 25", s.Fired())
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	var tick call
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.PostAfter(1*Microsecond, tick, nil)
		}
	}
	s.PostAfter(1*Microsecond, tick, nil)
	b.ResetTimer()
	s.RunAll()
}
