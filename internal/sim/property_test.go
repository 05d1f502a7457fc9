package sim

import (
	"sort"
	"testing"
)

// Property tests for the scheduler: randomized workloads checked against
// the kernel's ordering, cancellation, and clock-boundary contracts. The
// whole simulation's determinism rests on these invariants, so they are
// exercised across many seeded random agendas, with deliberately heavy
// deadline collisions.

// TestPropertyEqualDeadlineFIFO schedules many events over a tiny time
// range (forcing ties) and asserts the firing order is exactly
// (deadline, scheduling order) — the total order the rest of the stack
// leans on at equal deadlines.
func TestPropertyEqualDeadlineFIFO(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := NewRNG(uint64(trial) + 1)
		s := NewScheduler()
		const n = 400
		type key struct {
			at  Time
			ord int
		}
		scheduled := make([]key, n)
		var fired []key
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(16)) // 16 slots for 400 events: many ties
			scheduled[i] = key{at, i}
			s.Post(at, call(func() { fired = append(fired, key{s.Now(), i}) }), nil)
		}
		s.RunAll()
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(fired), n)
		}
		want := append([]key(nil), scheduled...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: firing position %d = %+v, want %+v (equal-deadline FIFO broken)",
					trial, i, fired[i], want[i])
			}
		}
	}
}

// TestPropertyStopContract drives random schedule/stop interleavings:
// stopped-while-pending events never fire and report true exactly once;
// fired events report false from Stop; everything else fires in order.
func TestPropertyStopContract(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := NewRNG(uint64(trial) + 100)
		s := NewScheduler()
		const n = 300
		timers := make([]Timer, n)
		deadlines := make([]Time, n)
		firedAt := make([]Time, n)
		for i := range firedAt {
			firedAt[i] = -1
		}
		for i := 0; i < n; i++ {
			deadlines[i] = Time(rng.Intn(50))
			s.ResetAt(&timers[i], deadlines[i], call(func() { firedAt[i] = s.Now() }), nil)
		}
		stopped := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Bool(0.4) {
				if !timers[i].Stop() {
					t.Fatalf("trial %d: Stop on pending timer %d returned false", trial, i)
				}
				if timers[i].Stop() {
					t.Fatalf("trial %d: second Stop on timer %d returned true", trial, i)
				}
				if timers[i].Active() {
					t.Fatalf("trial %d: stopped timer %d still active", trial, i)
				}
				stopped[i] = true
			}
		}
		s.RunAll()
		for i := 0; i < n; i++ {
			switch {
			case stopped[i] && firedAt[i] != -1:
				t.Fatalf("trial %d: stopped timer %d fired at %v", trial, i, firedAt[i])
			case !stopped[i] && firedAt[i] == -1:
				t.Fatalf("trial %d: live timer %d never fired", trial, i)
			case !stopped[i] && firedAt[i] != deadlines[i]:
				t.Fatalf("trial %d: timer %d fired at %v, deadline %v", trial, i, firedAt[i], deadlines[i])
			}
			if !stopped[i] && timers[i].Stop() {
				t.Fatalf("trial %d: Stop after firing returned true for timer %d", trial, i)
			}
		}
	}
}

// TestStopAfterPopSameDeadline pins the subtlest cancellation case: two
// events share a deadline and the first, while executing (its event
// already popped), stops the second. The second must not fire even
// though the clock already reached its deadline — and stopping the
// currently-executing event must be a harmless no-op.
func TestStopAfterPopSameDeadline(t *testing.T) {
	s := NewScheduler()
	var t1, t2 Timer
	fired1, fired2 := false, false
	s.ResetAt(&t1, 5, call(func() {
		fired1 = true
		if t1.Stop() {
			t.Error("Stop on the currently-executing (popped) event returned true")
		}
		if !t2.Stop() {
			t.Error("Stop on a same-deadline pending event returned false")
		}
	}), nil)
	s.ResetAt(&t2, 5, call(func() { fired2 = true }), nil)
	s.RunAll()
	if !fired1 {
		t.Fatal("first event did not fire")
	}
	if fired2 {
		t.Fatal("event stopped after its deadline was reached still fired")
	}
}

// TestPropertyRunClockBoundary checks Run(until) against random agendas
// and a random sequence of increasing boundaries: an event fires in the
// Run call whose boundary first covers its deadline (inclusive), the
// clock lands exactly on every boundary, and Now never retreats.
func TestPropertyRunClockBoundary(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := NewRNG(uint64(trial) + 500)
		s := NewScheduler()
		const n = 200
		deadlines := make([]Time, n)
		firedAt := make([]Time, n)
		fireSeen := make([]bool, n)
		for i := 0; i < n; i++ {
			deadlines[i] = Time(rng.Intn(1000))
			s.Post(deadlines[i], call(func() {
				firedAt[i] = s.Now()
				fireSeen[i] = true
			}), nil)
		}
		prev := Time(0)
		for _, until := range []Time{0, 137, 137, 450, 999, 1500} {
			s.Run(until)
			if until >= prev {
				if s.Now() != until {
					t.Fatalf("trial %d: after Run(%v) clock is %v, want exactly the boundary", trial, until, s.Now())
				}
				prev = until
			} else if s.Now() != prev {
				t.Fatalf("trial %d: Run(%v) into the past moved the clock to %v", trial, until, s.Now())
			}
			for i := 0; i < n; i++ {
				if deadlines[i] <= prev && !fireSeen[i] {
					t.Fatalf("trial %d: event at %v unfired after Run(%v)", trial, deadlines[i], prev)
				}
				if deadlines[i] > prev && fireSeen[i] {
					t.Fatalf("trial %d: event at %v fired before its boundary (Run(%v))", trial, deadlines[i], prev)
				}
			}
		}
		for i := 0; i < n; i++ {
			if firedAt[i] != deadlines[i] {
				t.Fatalf("trial %d: event %d fired at %v, deadline %v", trial, i, firedAt[i], deadlines[i])
			}
		}
	}
}

// TestPropertyNestedSchedulingKeepsOrder mixes callbacks that schedule
// further events (as MAC state machines do) and asserts global
// (time, seq) order still holds over the combined agenda.
func TestPropertyNestedSchedulingKeepsOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := NewRNG(uint64(trial) + 900)
		s := NewScheduler()
		var fired []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			fired = append(fired, s.Now())
			if depth >= 3 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				s.PostAfter(Time(rng.Intn(40)), call(func() { spawn(depth + 1) }), nil)
			}
		}
		for i := 0; i < 30; i++ {
			s.Post(Time(rng.Intn(100)), call(func() { spawn(0) }), nil)
		}
		s.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("trial %d: time retreated %v → %v at event %d", trial, fired[i-1], fired[i], i)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after RunAll", trial, s.Pending())
		}
	}
}
