package main

import (
	"bytes"
	"runtime/pprof"
	"time"
)

// tracer collects what only a traced rep records: CPU samples of the
// run phases and the host time of every simulated window. Everything
// stays in memory until the run ends.
type tracer struct {
	samples  []stackSample
	windowMS []float64
	pending  float64 // Σ agenda length at window edges
	err      error   // first profiler or decode error
}

// profiled runs f under the CPU profiler and keeps its samples.
func (t *tracer) profiled(f func()) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.fail(err)
		f()
		return
	}
	f()
	pprof.StopCPUProfile()
	s, err := decodeProfile(buf.Bytes())
	t.fail(err)
	t.samples = append(t.samples, s...)
}

func (t *tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// window records one simulated window's host time and the agenda
// length it ended with.
func (t *tracer) window(host time.Duration, pending int) {
	t.windowMS = append(t.windowMS, float64(host.Nanoseconds())/1e6)
	t.pending += float64(pending)
}
