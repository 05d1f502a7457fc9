package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/medium"
)

// workload is one named set of inputs, generated from a seed. Rep k
// builds the seed's k-th draw of inputs, runs it once and checks the
// outputs. A run's timed reps walk k = 0, 1, 2, …, so that a reported
// median reflects the code and not the luck of one topology; repeating
// one k repeats identical work, so its digests must repeat.
type workload interface {
	Name() string
	// Inputs describes the generated inputs and sizes in one line.
	Inputs() string
	// SimSeconds is the simulated time one rep advances, summed over
	// its runs; a constant of the workload.
	SimSeconds() float64
	// Rep runs repetition k, traced when tr is non-nil.
	Rep(seed uint64, k int, tr *tracer) rep
	// BareMedium builds the seed's medium alone, with no MAC attached,
	// for the fan-out unit cost.
	BareMedium(seed uint64) *medium.Medium
}

// spans accumulates host seconds per named span within one rep.
type spans map[string]float64

func (s spans) add(name string, since time.Time) {
	s[name] += time.Since(since).Seconds()
}

// counters accumulates layer counts within one rep.
type counters map[string]float64

// rep is what one repetition measured.
type rep struct {
	wallS      float64 // run phase, host seconds
	setupS     float64 // build phase, host seconds
	allocBytes uint64  // TotalAlloc delta over the run phase
	mallocs    uint64  // Mallocs delta over the run phase
	gcCycles   uint32  // NumGC delta over the run phase
	liveHeapMB float64

	attempted int
	failures  []string
	digests   [][32]byte

	spans     spans
	counts    counters
	headlines map[string]float64 // paper_figures only
}

func newRep() rep {
	return rep{spans: spans{}, counts: counters{}}
}

// op runs one operation — one arm run or one figure — and records one
// failure for a panic or for the reasons the operation returns.
func (r *rep) op(name string, f func() []string) {
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.failures = append(r.failures, fmt.Sprintf("%s: panic: %v", name, p))
		}
	}()
	if bad := f(); len(bad) > 0 {
		r.failures = append(r.failures, name+": "+strings.Join(bad, "; "))
	}
}

// measure adds one run phase to the rep: run returns the host seconds
// it timed itself, and the allocation counters are read around it.
func (r *rep) measure(run func() float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	r.wallS += run()
	runtime.ReadMemStats(&b)
	r.allocBytes += b.TotalAlloc - a.TotalAlloc
	r.mallocs += b.Mallocs - a.Mallocs
	r.gcCycles += b.NumGC - a.NumGC
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
