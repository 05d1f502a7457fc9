package runner

import (
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// trial mimics an experiment unit: all randomness derived from the index.
func trial(i int) uint64 {
	rng := sim.NewRNG(uint64(i)*7919 + 1)
	var s uint64
	for k := 0; k < 1000; k++ {
		s += rng.Uint64() >> 32
	}
	return s
}

func TestMapOrdering(t *testing.T) {
	for _, w := range []int{0, 1, 2, 4, 16, 100} {
		got := Map(Config{Workers: w}, 37, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	want := Map(Config{Workers: 1}, 64, trial)
	for _, w := range []int{2, 4, 16} {
		got := Map(Config{Workers: w}, 64, trial)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(Config{}, 0, trial); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := Map(Config{Workers: 8}, 1, func(i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestProgressReporting(t *testing.T) {
	for _, w := range []int{1, 4} {
		var calls int
		var lastDone int
		Map(Config{Workers: w, OnProgress: func(done, total int) {
			calls++
			if total != 25 {
				t.Fatalf("workers=%d: total = %d, want 25", w, total)
			}
			if done != lastDone+1 {
				t.Fatalf("workers=%d: done jumped from %d to %d", w, lastDone, done)
			}
			lastDone = done
		}}, 25, trial)
		if calls != 25 {
			t.Fatalf("workers=%d: %d progress calls, want 25", w, calls)
		}
	}
}

// TestMapUsesMultipleGoroutines is a rendezvous: each of two trials
// announces itself, then waits for the other, so Map can return only if
// both were in flight at once. A pool that ran them one after the other
// would block forever and fail on the test timeout; neither the wall
// clock nor the CPU count comes into it.
func TestMapUsesMultipleGoroutines(t *testing.T) {
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	got := Map(Config{Workers: 2}, 2, func(i int) int {
		close(started[i])
		<-started[1-i]
		return i
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("results %v, want [0 1]", got)
	}
}

func TestPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				// The original panic value must propagate unchanged at
				// every worker count.
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", w, r)
				}
			}()
			Map(Config{Workers: w}, 16, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestDo(t *testing.T) {
	var sum atomic.Int64
	Do(Config{Workers: 4}, 100, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}
