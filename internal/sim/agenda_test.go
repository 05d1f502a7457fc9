package sim

import (
	"testing"
	"unsafe"
)

// Tests for the two-tier agenda's own hazards; FuzzScheduler's in-code
// seeds pin the ordering traps (peek must not move the window, admit
// before select, the window edge, Run leaving now past the base), these
// pin the rest.

// orderRecorder appends the uint64 id of each fired event.
type orderRecorder struct{ ids []uint64 }

func (r *orderRecorder) HandleEvent(arg any) { r.ids = append(r.ids, arg.(uint64)) }

// TestSameTickBurst is the cold start of a large saturated network: every
// station schedules at one instant, so one bucket holds everything.
// 10 000 posts and 4 096 armed timers at the same deadline must drain in
// scheduling order, with a slice of the timers stopped first. Correctness
// only; the cost of a crowded bucket is the AgendaBurst and AgendaRearm
// benchmark rows.
func TestSameTickBurst(t *testing.T) {
	const (
		posts  = 10_000
		timers = 4_096
		at     = 7 * Microsecond
	)
	s := NewScheduler()
	rec := &orderRecorder{}
	tm := make([]Timer, timers)
	var want []uint64
	id := uint64(0)
	for i := 0; i < posts; i++ {
		if i < timers {
			s.ResetAt(&tm[i], at, rec, id)
			if i%3 != 0 { // every third timer is stopped below
				want = append(want, id)
			}
			id++
		}
		s.Post(at, rec, id)
		want = append(want, id)
		id++
	}
	for i := 0; i < timers; i += 3 {
		if !tm[i].Stop() {
			t.Fatalf("timer %d: Stop reported not pending", i)
		}
	}
	if got := s.Pending(); got != len(want) {
		t.Fatalf("Pending() = %d, want %d", got, len(want))
	}
	s.RunAll()
	if len(rec.ids) != len(want) {
		t.Fatalf("fired %d events, want %d", len(rec.ids), len(want))
	}
	for i := range want {
		if rec.ids[i] != want[i] {
			t.Fatalf("event %d fired in position of %d (index %d): same-instant events must drain in scheduling order", rec.ids[i], want[i], i)
		}
	}
	if s.Now() != at || s.Pending() != 0 {
		t.Fatalf("after drain: now %v pending %d", s.Now(), s.Pending())
	}
}

// TestZeroValueScheduler: the zero Scheduler is ready to use — bucket
// heads, chain links and the free list are stored as index+1 so that
// zeroed memory means "empty" — on every path, near and far.
func TestZeroValueScheduler(t *testing.T) {
	var s Scheduler
	if s.Step() || s.Pending() != 0 || s.Now() != 0 {
		t.Fatal("zero scheduler is not empty")
	}
	rec := &orderRecorder{}
	var near, far Timer
	s.Post(2*Second, rec, uint64(4)) // far heap
	s.ResetAt(&far, Second, rec, uint64(3))
	s.ResetAt(&near, 3*Microsecond, rec, uint64(9))
	s.Post(0, rec, uint64(1)) // the bucket the clock is in
	s.Post(Millisecond, rec, uint64(2))
	if !near.Stop() || near.Active() || !far.Active() {
		t.Fatal("timers on a zero scheduler do not stop/report")
	}
	s.Run(10 * Second)
	if got := rec.ids; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("fired %v, want [1 2 3 4]", got)
	}
	if s.Now() != 10*Second || s.Fired() != 4 {
		t.Fatalf("now %v fired %d", s.Now(), s.Fired())
	}
}

// TestSchedulerFootprint: the figure suite builds hundreds of schedulers
// per run, so the fixed part of one stays small; the slab and the far
// heap grow with use like any slice.
func TestSchedulerFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Scheduler{}); sz > 8<<10 {
		t.Fatalf("Scheduler is %d bytes before its first event; keep the ring's fixed arrays within 8 KB", sz)
	}
}

// TestWindowWrap walks the window around the ring several times with
// events one bucket apart and a far event always waiting, so every
// bitmap word, the wrap from the last word to the first and admission
// at every cursor position are exercised.
func TestWindowWrap(t *testing.T) {
	s := NewScheduler()
	rec := &orderRecorder{}
	const step = Time(1) << tickShift
	const n = 5 * ringSize
	for i := 0; i < n; i++ {
		s.Post(Time(i)*step+Time(i%7), rec, uint64(i))
	}
	s.RunAll()
	if len(rec.ids) != n {
		t.Fatalf("fired %d of %d", len(rec.ids), n)
	}
	for i, id := range rec.ids {
		if id != uint64(i) {
			t.Fatalf("position %d fired event %d", i, id)
		}
	}
}
