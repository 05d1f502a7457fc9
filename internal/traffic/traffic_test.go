package traffic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// sinkQueue is an Enqueuer with an infinite-rate server: packets are
// counted and the backlog stays empty, so rate measurements see the
// arrival process alone.
type sinkQueue struct {
	enqueued uint64
	calls    int
}

func (q *sinkQueue) Enqueue(dst, count int) {
	q.enqueued += uint64(count)
	q.calls++
}
func (q *sinkQueue) Backlog(dst int) int { return 0 }

// stuckQueue models a dead server: the backlog it reports never drains.
type stuckQueue struct {
	backlog int
}

func (q *stuckQueue) Enqueue(dst, count int) { q.backlog += count }
func (q *stuckQueue) Backlog(dst int) int    { return q.backlog }

// runSpec drives one source over d of virtual time and returns it.
func runSpec(t *testing.T, spec Spec, seed uint64, d sim.Time) (*Source, *sinkQueue) {
	t.Helper()
	sched := sim.NewScheduler()
	q := &sinkQueue{}
	src := NewSource(sched, sim.NewRNG(seed), spec, q, 1)
	src.Start()
	sched.Run(d)
	return src, q
}

// empiricalRate asserts the accepted packet rate is within tol
// (fractional) of want packets per second.
func empiricalRate(t *testing.T, src *Source, q *sinkQueue, d sim.Time, want, tol float64) {
	t.Helper()
	got := float64(q.enqueued) / d.Seconds()
	if math.Abs(got-want) > tol*want {
		t.Fatalf("empirical rate %.1f pkt/s, want %.1f ± %.0f%% (accepted %d over %v)",
			got, want, tol*100, q.enqueued, d)
	}
	if src.Stats().Accepted != q.enqueued {
		t.Fatalf("source accepted %d but queue saw %d", src.Stats().Accepted, q.enqueued)
	}
}

func TestCBRRateIsExact(t *testing.T) {
	const pps = 800.0
	d := 10 * sim.Second
	src, q := runSpec(t, CBRAt(pps), 3, d)
	// Deterministic spacing: exactly floor(d / gap) arrivals.
	want := uint64(float64(d) / (1e9 / pps))
	if q.enqueued != want {
		t.Fatalf("CBR accepted %d packets, want exactly %d", q.enqueued, want)
	}
	empiricalRate(t, src, q, d, pps, 0.01)
}

func TestPoissonEmpiricalRate(t *testing.T) {
	const pps = 1000.0
	d := 20 * sim.Second
	// 20k expected arrivals → σ ≈ 141, so 5% (1000 packets) is ~7σ.
	src, q := runSpec(t, PoissonAt(pps), 7, d)
	empiricalRate(t, src, q, d, pps, 0.05)
}

func TestPoissonBurstPreservesRate(t *testing.T) {
	const pps = 1000.0
	d := 20 * sim.Second
	spec := PoissonAt(pps)
	spec.Burst = 8
	src, q := runSpec(t, spec, 7, d)
	empiricalRate(t, src, q, d, pps, 0.05)
	if q.calls*8 != int(q.enqueued) {
		t.Fatalf("burst 8: %d calls delivered %d packets", q.calls, q.enqueued)
	}
}

func TestOnOffEmpiricalRate(t *testing.T) {
	const peak = 2000.0
	on, off := 100*sim.Millisecond, 300*sim.Millisecond
	d := 40 * sim.Second // ~100 ON/OFF cycles
	src, q := runSpec(t, OnOffAt(peak, on, off), 11, d)
	want := peak * float64(on) / float64(on+off)
	empiricalRate(t, src, q, d, want, 0.15)
	if got := OnOffAt(peak, on, off).OfferedMbps(1400); math.Abs(got-want*1400*8/1e6) > 1e-9 {
		t.Fatalf("OfferedMbps %.3f disagrees with the mean rate", got)
	}
}

func TestChurnPausesArrivals(t *testing.T) {
	const pps = 1000.0
	d := 40 * sim.Second
	spec := PoissonAt(pps)
	spec.UpMean = 500 * sim.Millisecond
	spec.DownMean = 500 * sim.Millisecond
	src, q := runSpec(t, spec, 13, d)
	if s := src.Stats().Sessions; s < 10 {
		t.Fatalf("expected many churn sessions over %v, got %d", d, s)
	}
	// Duty cycle 50%: the mean rate halves.
	empiricalRate(t, src, q, d, pps/2, 0.15)
}

func TestQueueCapDropsAtTail(t *testing.T) {
	spec := CBRAt(1000)
	spec.QueueCap = 32
	sched := sim.NewScheduler()
	q := &stuckQueue{}
	src := NewSource(sched, sim.NewRNG(1), spec, q, 1)
	src.Start()
	sched.Run(1 * sim.Second)
	st := src.Stats()
	if st.Accepted != 32 {
		t.Fatalf("stuck queue accepted %d, want exactly the cap 32", st.Accepted)
	}
	if st.Dropped != st.Offered-32 {
		t.Fatalf("drops %d ≠ offered %d − cap", st.Dropped, st.Offered)
	}
	if st.Offered != 1000 { // arrivals at 1ms, 2ms, …, 1000ms inclusive
		t.Fatalf("offered %d, want 1000 CBR arrivals in 1s", st.Offered)
	}
}

// TestDeterminismAcrossWorkers replays a batch of independently seeded
// sources through the trial runner at several worker counts: identical
// counters prove workloads are a pure function of their seed, like
// every other randomness consumer.
func TestDeterminismAcrossWorkers(t *testing.T) {
	trial := func(i int) Stats {
		sched := sim.NewScheduler()
		q := &sinkQueue{}
		spec := PoissonAt(500)
		spec.UpMean = 300 * sim.Millisecond
		spec.DownMean = 200 * sim.Millisecond
		src := NewSource(sched, sim.NewRNG(uint64(i)*0x9e37+1), spec, q, 1)
		src.Start()
		sched.Run(5 * sim.Second)
		return src.Stats()
	}
	serial := runner.Map(runner.Config{Workers: 1}, 12, trial)
	for _, workers := range []int{4, 16} {
		got := runner.Map(runner.Config{Workers: workers}, 12, trial)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d produced different workloads than serial:\n%v\nvs\n%v", workers, serial, got)
		}
	}
}

func TestArrivalTimeRing(t *testing.T) {
	spec := CBRAt(1000)
	sched := sim.NewScheduler()
	q := &sinkQueue{}
	src := NewSource(sched, sim.NewRNG(1), spec, q, 1)
	src.EnableLatency(256)
	src.Start()
	sched.Run(100 * sim.Millisecond)
	// CBR at 1000 pkt/s: packet k arrives at (k+1) ms.
	for seq := uint32(0); seq < 99; seq++ {
		at, ok := src.ArrivalTime(seq)
		if !ok {
			t.Fatalf("seq %d: no arrival time", seq)
		}
		if want := sim.Time(seq+1) * sim.Millisecond; at != want {
			t.Fatalf("seq %d arrived at %v, want %v", seq, at, want)
		}
	}
	if _, ok := src.ArrivalTime(5000); ok {
		t.Fatal("unaccepted sequence number reported an arrival time")
	}
}

// TestWithOfferedMbpsRoundTrips pins the inverse relationship: setting
// a mean offered load then reading it back returns the same number for
// every kind, including duty-cycled and churned ones.
func TestWithOfferedMbpsRoundTrips(t *testing.T) {
	specs := []Spec{
		CBRAt(1),
		PoissonAt(1),
		OnOffAt(1, 100*sim.Millisecond, 300*sim.Millisecond),
	}
	churned := PoissonAt(1)
	churned.UpMean = 200 * sim.Millisecond
	churned.DownMean = 600 * sim.Millisecond
	specs = append(specs, churned)
	for _, s := range specs {
		got := s.WithOfferedMbps(2.5, 1400).OfferedMbps(1400)
		if math.Abs(got-2.5) > 1e-9 {
			t.Errorf("%v: WithOfferedMbps(2.5) reads back %.6f Mb/s", s.Kind, got)
		}
	}
}

func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range []Kind{Saturated, CBR, Poisson, OnOff} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("fractal"); err == nil {
		t.Fatal("ParseKind accepted nonsense")
	}
}

func TestNewSourcePanicsOnSaturated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSource accepted a Saturated spec")
		}
	}()
	NewSource(sim.NewScheduler(), sim.NewRNG(1), Saturate(), &sinkQueue{}, 1)
}

// TestArrivalPathZeroAllocs is the acceptance gate for the arrival hot
// path: once a source's timers and latency ring are warm, a
// steady-state arrival (timer fire → backlog check → Enqueue → next
// inter-arrival draw and re-arm) must not touch the allocator, for both
// the deterministic and the exponential process.
func TestArrivalPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"cbr", CBRAt(10000)},
		{"poisson", PoissonAt(10000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			q := &sinkQueue{}
			src := NewSource(sched, sim.NewRNG(5), tc.spec, q, 1)
			src.EnableLatency(256)
			src.Start()
			for i := 0; i < 256; i++ {
				sched.Step() // warm the agenda, slots and ring
			}
			// The whole window is one run: AllocsPerRun divides by its
			// run count in integers, so a leak of under one object per
			// arrival would read 0 if each arrival were a run.
			if allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 400; i++ {
					sched.Step()
				}
			}); allocs != 0 {
				t.Fatalf("steady-state arrivals allocate %.0f objects over 400 arrivals, want 0", allocs)
			}
		})
	}
}

// BenchmarkArrival measures one steady-state arrival event end to end.
func BenchmarkArrival(b *testing.B) {
	sched := sim.NewScheduler()
	q := &sinkQueue{}
	src := NewSource(sched, sim.NewRNG(5), PoissonAt(10000), q, 1)
	src.EnableLatency(256)
	src.Start()
	for i := 0; i < 256; i++ {
		sched.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Step()
	}
}
