package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
)

const offAir = 300.0

func matrixMedium(lossDB [][]float64, seed uint64) (*medium.Medium, *sim.Scheduler, *sim.RNG) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: lossDB},
		make([]geo.Point, len(lossDB)), rng.Stream(1))
	return m, sched, rng
}

// fastConfig shrinks virtual packets so unit tests converge quickly while
// keeping every protocol mechanism engaged.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Nvpkt = 8
	cfg.MinInterfSamples = 8
	cfg.BroadcastPeriod = 250 * sim.Millisecond
	return cfg
}

func TestSingleLinkCalibration(t *testing.T) {
	// §4.2: CMAP's single-link goodput at 6 Mb/s (5.04 Mb/s on the
	// testbed) is comparable to 802.11's (5.07 Mb/s).
	m, sched, rng := matrixMedium([][]float64{
		{0, 70},
		{70, 0},
	}, 3)
	cfg := DefaultConfig()
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	dur := 10 * sim.Second
	rx.Meter = &stats.Meter{Start: dur * 3 / 10, End: dur}
	tx.SetSaturated(1)
	sched.Run(dur)
	got := rx.Meter.Mbps()
	if got < 4.6 || got > 5.9 {
		t.Errorf("CMAP single-link goodput = %.2f Mb/s, want ≈5.0–5.6", got)
	}
	if rx.Counters().Duplicates > rx.Counters().Delivered/100 {
		t.Errorf("clean link produced %d duplicates of %d", rx.Counters().Duplicates, rx.Counters().Delivered)
	}
	if tx.Counters().Defers != 0 {
		t.Errorf("single flow deferred %d times with an empty conflict map", tx.Counters().Defers)
	}
}

func TestExposedTerminalsConcurrent(t *testing.T) {
	// Two exposed flows: senders hear each other, receivers are clean.
	// CMAP must keep both flows running concurrently at ≈2× a single link.
	m, sched, rng := matrixMedium([][]float64{
		// S1(0) R1(1) S2(2) R2(3)
		{0, 68, 75, 108},
		{68, 0, 108, offAir},
		{75, 108, 0, 68},
		{108, offAir, 68, 0},
	}, 17)
	cfg := DefaultConfig()
	s1 := New(0, cfg, m, rng.Stream(10))
	r1 := New(1, cfg, m, rng.Stream(11))
	s2 := New(2, cfg, m, rng.Stream(12))
	r2 := New(3, cfg, m, rng.Stream(13))
	dur := 15 * sim.Second
	r1.Meter = &stats.Meter{Start: dur * 2 / 5, End: dur}
	r2.Meter = &stats.Meter{Start: dur * 2 / 5, End: dur}
	s1.SetSaturated(1)
	s2.SetSaturated(3)
	sched.Run(dur)
	agg := r1.Meter.Mbps() + r2.Meter.Mbps()
	if agg < 8.5 {
		t.Errorf("exposed aggregate = %.2f Mb/s (r1 %.2f, r2 %.2f), want ≈2× single link",
			agg, r1.Meter.Mbps(), r2.Meter.Mbps())
	}
	// Neither sender should have built defer entries against the other.
	if s1.InterfererListLen() != 0 && s2.InterfererListLen() != 0 {
		t.Error("both exposed receivers reported interferers")
	}
	_ = s2
}

func TestObservationTableStaysBounded(t *testing.T) {
	// A saturated exposed pair plus a station that overhears both
	// senders and never sends. After every event (so at every
	// finalizeVpkt) every node's table must hold only what its last
	// prune kept: entries that ended within a retention of the newest
	// entry's arrival. That caps each heard sender at the virtual
	// packets that start within a retention plus an airtime of it.
	m, sched, rng := matrixMedium([][]float64{
		// S1(0) R1(1) S2(2) R2(3) O(4)
		{0, 68, 75, 108, 70},
		{68, 0, 108, offAir, 95},
		{75, 108, 0, 68, 82},
		{108, offAir, 68, 0, 95},
		{70, 95, 82, 95, 0},
	}, 29)
	cfg := DefaultConfig()
	var nodes []*Node
	for id := range 5 {
		nodes = append(nodes, New(id, cfg, m, rng.Stream(uint64(10+id))))
	}
	nodes[0].SetSaturated(1)
	nodes[2].SetSaturated(3)
	ret := nodes[0].Obs.retention()
	// Two senders. A sender's virtual packets are disjoint on the air,
	// and none is shorter than vpktAirtime(1).
	air := &nodes[0].cfg
	perSender := int((ret+air.vpktAirtime(cfg.Nvpkt))/air.vpktAirtime(1)) + 1
	bound := 2 * perSender
	peak := make([]int, len(nodes))
	for sched.Now() < 8*sim.Second && sched.Step() {
		for i, n := range nodes {
			es := n.Obs.Entries
			if len(es) == 0 {
				continue
			}
			peak[i] = max(peak[i], len(es))
			if len(es) > bound {
				t.Fatalf("node %d at %v: %d overheard transmissions, bound %d", i, sched.Now(), len(es), bound)
			}
			// The newest entry was added at the last prune, heard then.
			horizon := es[len(es)-1].VisibleAt - Turnaround - ret
			for _, e := range es {
				if e.EstEnd < horizon {
					t.Fatalf("node %d at %v: entry %v/%d ended at %v, before the horizon %v of the last prune",
						i, sched.Now(), e.Src, e.VSeq, e.EstEnd, horizon)
				}
			}
		}
	}
	if s := nodes[4].Counters(); s.HeadersHeard < 100 {
		t.Fatalf("the overhearing station heard only %d headers; the run tested nothing", s.HeadersHeard)
	}
	t.Logf("peak table sizes %v (bound %d)", peak, bound)
}

func TestConflictingFlowsLearnToDefer(t *testing.T) {
	// Two flows whose cross links are strong: concurrent transmissions
	// destroy each other at the receivers. CMAP must learn the conflict,
	// defer, and settle near single-link aggregate with both flows alive.
	m, sched, rng := matrixMedium([][]float64{
		// S1(0) R1(1) S2(2) R2(3)
		{0, 68, 72, 71},
		{68, 0, 70, offAir},
		{72, 70, 0, 68},
		{71, offAir, 68, 0},
	}, 23)
	// Paper-scale virtual packets: the 1 ms software visibility delay is
	// amortised over 62 ms bursts, exactly why §4.1 picks Nvpkt = 32.
	cfg := DefaultConfig()
	cfg.BroadcastPeriod = 250 * sim.Millisecond
	s1 := New(0, cfg, m, rng.Stream(10))
	r1 := New(1, cfg, m, rng.Stream(11))
	s2 := New(2, cfg, m, rng.Stream(12))
	r2 := New(3, cfg, m, rng.Stream(13))
	dur := 30 * sim.Second
	r1.Meter = &stats.Meter{Start: dur / 2, End: dur}
	r2.Meter = &stats.Meter{Start: dur / 2, End: dur}
	s1.SetSaturated(1)
	s2.SetSaturated(3)
	sched.Run(dur)

	t1, t2 := r1.Meter.Mbps(), r2.Meter.Mbps()
	agg := t1 + t2
	if agg < 3.4 {
		t.Errorf("conflicting aggregate = %.2f Mb/s (%.2f + %.2f), want near single link ≈5",
			agg, t1, t2)
	}
	if s1.Counters().Defers == 0 && s2.Counters().Defers == 0 {
		t.Error("neither sender ever deferred; conflict map did not engage")
	}
	if s1.DeferTableSize() == 0 && s2.DeferTableSize() == 0 {
		t.Error("defer tables empty after 30s of destructive interference")
	}
	// Fairness: neither flow starved (worst case one side below 10%).
	if t1 < agg/10 || t2 < agg/10 {
		t.Errorf("starvation: flows got %.2f and %.2f Mb/s", t1, t2)
	}
}

func TestHiddenTerminalsBackoffPreventsCollapse(t *testing.T) {
	// Senders out of range of each other, both destroying each other's
	// packets at both receivers. The defer mechanism cannot engage; the
	// loss-driven backoff must keep aggregate near the interleaved rate.
	m, sched, rng := matrixMedium([][]float64{
		// S1(0) R1(1) S2(2) R2(3)
		{0, 68, offAir, 71},
		{68, 0, 71, offAir},
		{offAir, 71, 0, 68},
		{71, offAir, 68, 0},
	}, 29)
	cfg := fastConfig()
	s1 := New(0, cfg, m, rng.Stream(10))
	r1 := New(1, cfg, m, rng.Stream(11))
	s2 := New(2, cfg, m, rng.Stream(12))
	r2 := New(3, cfg, m, rng.Stream(13))
	dur := 30 * sim.Second
	r1.Meter = &stats.Meter{Start: dur / 2, End: dur}
	r2.Meter = &stats.Meter{Start: dur / 2, End: dur}
	s1.SetSaturated(1)
	s2.SetSaturated(3)
	sched.Run(dur)
	agg := r1.Meter.Mbps() + r2.Meter.Mbps()
	// The paper's Fig. 15: CMAP performs comparably to 802.11 here —
	// roughly the single-pair throughput, certainly not a collapse.
	if agg < 2.0 {
		t.Errorf("hidden-terminal aggregate = %.2f Mb/s, want ≥2 (backoff engaged)", agg)
	}
	if s1.Counters().Backoffs == 0 && s2.Counters().Backoffs == 0 {
		t.Error("no backoffs under heavy loss")
	}
}

func TestWindowedAckSurvivesAckLoss(t *testing.T) {
	// Forward link clean; ACKs destroyed ~half the time by an interferer
	// near the sender (classic exposed-sender ACK loss). With Nwindow=8
	// the flow keeps near-full goodput; with Nwindow=1 it degrades.
	lossMatrix := [][]float64{
		// S(0) R(1) I(2) Isink(3): interferer I transmits to Isink;
		// I is loud at S (collides with R's ACKs there) but silent at R.
		{0, 68, 72, offAir},
		{68, 0, offAir, offAir},
		{72, offAir, 0, 68},
		{offAir, offAir, 68, 0},
	}
	run := func(nwindow int, seed uint64) float64 {
		m, sched, rng := matrixMedium(lossMatrix, seed)
		cfg := fastConfig()
		cfg.Nwindow = nwindow
		s := New(0, cfg, m, rng.Stream(10))
		r := New(1, cfg, m, rng.Stream(11))
		i := New(2, cfg, m, rng.Stream(12))
		isink := New(3, cfg, m, rng.Stream(13))
		_ = isink
		dur := 20 * sim.Second
		r.Meter = &stats.Meter{Start: dur / 2, End: dur}
		s.SetSaturated(1)
		i.SetSaturated(3)
		sched.Run(dur)
		return r.Meter.Mbps()
	}
	win8 := run(8, 101)
	win1 := run(1, 101)
	if win8 < 3.5 {
		t.Errorf("Nwindow=8 goodput = %.2f Mb/s under ACK loss, want ≥3.5", win8)
	}
	if win1 > win8*0.92 {
		t.Errorf("Nwindow=1 (%.2f) should clearly trail Nwindow=8 (%.2f) under ACK loss", win1, win8)
	}
}

func TestRetransmissionDeliversEverything(t *testing.T) {
	// Marginal forward link: without retransmission ~30% would vanish;
	// the windowed protocol must deliver every packet of a finite backlog.
	p := phy.DefaultParams()
	r6 := phy.RateByID(phy.Rate6Mbps)
	lo, hi := phy.SensitivityDBm, -60.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if phy.IsolationPRR(r6, mid, 1433) < 0.7 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lossDB := p.TxPowerDBm - (lo+hi)/2
	m, sched, rng := matrixMedium([][]float64{
		{0, lossDB},
		{lossDB, 0},
	}, 37)
	cfg := fastConfig()
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	const count = 256
	tx.Enqueue(1, count)
	sched.Run(60 * sim.Second)
	if got := rx.ReceivedFrom(0); got != count {
		t.Errorf("delivered %d of %d on a lossy link with retransmission", got, count)
	}
	if tx.Counters().RetxTimeouts == 0 {
		t.Error("expected window-full retransmission timeouts on a lossy link")
	}
	if rx.Counters().Duplicates == 0 {
		t.Log("note: no duplicates observed (possible but unusual on a lossy link)")
	}
}

func TestBroadcastMode(t *testing.T) {
	// One source broadcasting to two targets: both receive; no ACKs flow.
	m, sched, rng := matrixMedium([][]float64{
		{0, 68, 70},
		{68, 0, 80},
		{70, 80, 0},
	}, 41)
	cfg := fastConfig()
	src := New(0, cfg, m, rng.Stream(10))
	a := New(1, cfg, m, rng.Stream(11))
	b := New(2, cfg, m, rng.Stream(12))
	dur := 5 * sim.Second
	a.Meter = &stats.Meter{Start: sim.Second, End: dur}
	b.Meter = &stats.Meter{Start: sim.Second, End: dur}
	src.SetBroadcast([]int{1, 2}, true, 0)
	sched.Run(dur)
	if a.Meter.Mbps() < 4.0 || b.Meter.Mbps() < 4.0 {
		t.Errorf("broadcast goodput a=%.2f b=%.2f Mb/s, want ≈5", a.Meter.Mbps(), b.Meter.Mbps())
	}
	if src.Counters().AcksReceived != 0 {
		t.Error("broadcast flow received ACKs")
	}
	if a.Counters().AcksSent != 0 || b.Counters().AcksSent != 0 {
		t.Error("broadcast receivers sent ACKs")
	}
}

func TestHeaderTrailerCountersOnCleanLink(t *testing.T) {
	m, sched, rng := matrixMedium([][]float64{
		{0, 70},
		{70, 0},
	}, 43)
	cfg := fastConfig()
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	tx.SetSaturated(1)
	sched.Run(5 * sim.Second)
	seen, hdr, hot := rx.FlowCounters(0)
	if seen == 0 {
		t.Fatal("no virtual packets observed")
	}
	if hdr < seen*98/100 || hot < seen*99/100 {
		t.Errorf("clean link header/trailer visibility low: seen=%d hdr=%d hdrOrTrl=%d", seen, hdr, hot)
	}
	sent := tx.Counters().VpktsSent
	if seen < sent*95/100 || seen > sent {
		t.Errorf("receiver saw %d vpkts of %d sent", seen, sent)
	}
}

func TestFlowPanicsOnSecondDestination(t *testing.T) {
	m, _, rng := matrixMedium([][]float64{
		{0, 70, 80},
		{70, 0, 80},
		{80, 80, 0},
	}, 47)
	n := New(0, DefaultConfig(), m, rng.Stream(10))
	n.Enqueue(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("changing destination did not panic")
		}
	}()
	n.Enqueue(2, 1)
}

func TestDeferToOngoingTowardOwnReceiver(t *testing.T) {
	// While S2 transmits to R, S1 (whose destination is also R) must
	// defer: "u checks that v is neither sending nor receiving" (§3.2).
	m, sched, rng := matrixMedium([][]float64{
		// S1(0) R(1) S2(2)
		{0, 68, 70},
		{68, 0, 68},
		{70, 68, 0},
	}, 53)
	cfg := fastConfig()
	s1 := New(0, cfg, m, rng.Stream(10))
	r := New(1, cfg, m, rng.Stream(11))
	s2 := New(2, cfg, m, rng.Stream(12))
	_ = r
	s2.SetSaturated(1)
	// Step until s2 is provably mid-virtual-packet (header long on the
	// air, several data frames in), so s1's ongoing list must show it.
	for sched.Step() {
		if sched.Now() > 100*sim.Millisecond && s2.Cur != nil && s2.Cur.Next >= 3 {
			break
		}
	}
	s1.Enqueue(1, 8)
	before := s1.Counters().VpktsSent
	if s1.Counters().VpktsSent != before {
		t.Error("s1 transmitted instantly while its receiver was mid-reception")
	}
	if s1.Counters().Defers == 0 {
		t.Error("s1 never recorded a defer")
	}
	sched.Run(sched.Now() + 2*sim.Second)
	if got := r.ReceivedFrom(0); got != 8 {
		t.Errorf("r received %d of s1's 8 packets", got)
	}
}

func TestAblationDisableTrailers(t *testing.T) {
	// Without trailers, receivers ACK on the estimated virtual-packet end;
	// a clean link must still sustain full goodput.
	m, sched, rng := matrixMedium([][]float64{
		{0, 70},
		{70, 0},
	}, 61)
	cfg := DefaultConfig()
	cfg.DisableTrailers = true
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	dur := 8 * sim.Second
	rx.Meter = &stats.Meter{Start: dur / 4, End: dur}
	tx.SetSaturated(1)
	sched.Run(dur)
	if got := rx.Meter.Mbps(); got < 4.5 {
		t.Errorf("trailer-less clean-link goodput = %.2f Mb/s", got)
	}
	if rx.Counters().TrailersHeard != 0 {
		t.Error("trailers transmitted despite DisableTrailers")
	}
	if rx.Counters().AcksSent == 0 {
		t.Error("no ACKs without trailers — the timer fallback is broken")
	}
}

func TestAblationBackoffOnMissingAck(t *testing.T) {
	// §3.4: "the sender does not update CW when an ACK does not arrive…
	// to avoid unnecessary backoffs in response to just ACK losses."
	// Under moderate ACK loss at the sender (an interferer audible at S
	// but silent at R), the 802.11-style ablation takes many spurious
	// backoffs; the loss-based policy takes none and loses no goodput.
	lossMatrix := [][]float64{
		{0, 68, 80, offAir},
		{68, 0, offAir, offAir},
		{80, offAir, 0, 68},
		{offAir, offAir, 68, 0},
	}
	run := func(ackBackoff bool) (float64, uint64) {
		m, sched, rng := matrixMedium(lossMatrix, 63)
		cfg := DefaultConfig()
		cfg.BackoffOnMissingAck = ackBackoff
		s := New(0, cfg, m, rng.Stream(10))
		r := New(1, cfg, m, rng.Stream(11))
		i := New(2, cfg, m, rng.Stream(12))
		New(3, cfg, m, rng.Stream(13))
		dur := 15 * sim.Second
		r.Meter = &stats.Meter{Start: dur / 3, End: dur}
		s.SetSaturated(1)
		i.SetSaturated(3)
		sched.Run(dur)
		return r.Meter.Mbps(), s.Counters().Backoffs
	}
	lossBased, lossBackoffs := run(false)
	ackBased, ackBackoffs := run(true)
	if ackBackoffs < 10*lossBackoffs+10 {
		t.Errorf("802.11-style ablation took %d backoffs vs %d loss-based; expected many spurious ones",
			ackBackoffs, lossBackoffs)
	}
	if lossBased < ackBased*0.97 {
		t.Errorf("loss-based goodput (%.2f) should not trail 802.11-style (%.2f)", lossBased, ackBased)
	}
}

func TestTwoHopListPropagation(t *testing.T) {
	// Asymmetric reach (§3.1): receiver R's interferer list cannot reach
	// the interferer X directly, but a relay M hears both. With
	// TwoHopLists enabled, X still learns to defer to S→R.
	//
	// Topology: S(0)→R(1); X(2) interferes at R but cannot hear R;
	// M(3) hears everyone.
	m, sched, rng := matrixMedium([][]float64{
		// S     R     X     M
		{0, 68, 75, 70},
		{68, 0, offAir, 70}, // R cannot reach X directly
		{75, offAir, 0, 70},
		{70, 70, 70, 0},
	}, 71)
	cfg := fastConfig()
	cfg.TwoHopLists = true
	s := New(0, cfg, m, rng.Stream(10))
	r := New(1, cfg, m, rng.Stream(11))
	x := New(2, cfg, m, rng.Stream(12))
	relay := New(3, cfg, m, rng.Stream(13))
	_ = s

	// Seed R's interferer list directly: transmissions from X conflict
	// with S→R. (The propagation path is what this test pins down.)
	r.Interferers[pairKey{Source: addr(0), Interferer: addr(2)}] = 100 * sim.Second
	sched.Run(3 * sim.Second)

	if relay.Counters().ListsRelayed == 0 {
		t.Fatal("relay never re-broadcast R's interferer list")
	}
	// X must now hold the Rule-2 entry (∗ : S→R).
	if !x.HasDeferEntry(addr(9), addr(0), addr(1), 0) {
		t.Error("X did not learn (∗ : S→R) via the two-hop relay")
	}
	// And without the flag, X must NOT learn it.
	m2, sched2, rng2 := matrixMedium([][]float64{
		{0, 68, 75, 70},
		{68, 0, offAir, 70},
		{75, offAir, 0, 70},
		{70, 70, 70, 0},
	}, 72)
	cfg2 := fastConfig()
	r2 := New(1, cfg2, m2, rng2.Stream(11))
	x2 := New(2, cfg2, m2, rng2.Stream(12))
	New(0, cfg2, m2, rng2.Stream(10))
	New(3, cfg2, m2, rng2.Stream(13))
	r2.Interferers[pairKey{Source: addr(0), Interferer: addr(2)}] = 100 * sim.Second
	sched2.Run(3 * sim.Second)
	if x2.HasDeferEntry(addr(9), addr(0), addr(1), 0) {
		t.Error("X learned the entry without two-hop relaying despite no direct path")
	}
}

func TestPerDestQueuesRequireFlag(t *testing.T) {
	m, _, rng := matrixMedium([][]float64{
		{0, 70, 72},
		{70, 0, 75},
		{72, 75, 0},
	}, 81)
	n := New(0, DefaultConfig(), m, rng.Stream(10))
	n.Enqueue(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("second destination without PerDestQueues did not panic")
		}
	}()
	n.Enqueue(2, 1)
}

func TestPerDestQueuesDeliverBothFlows(t *testing.T) {
	// Multi-flow correctness: independent sequence spaces, windows and
	// ACK bookkeeping per destination.
	m, sched, rng := matrixMedium([][]float64{
		{0, 70, 72},
		{70, 0, 75},
		{72, 75, 0},
	}, 83)
	cfg := fastConfig()
	cfg.PerDestQueues = true
	s := New(0, cfg, m, rng.Stream(10))
	a := New(1, cfg, m, rng.Stream(11))
	b := New(2, cfg, m, rng.Stream(12))
	s.Enqueue(1, 120)
	s.Enqueue(2, 120)
	sched.Run(10 * sim.Second)
	if got := a.ReceivedFrom(0); got != 120 {
		t.Errorf("flow to A delivered %d of 120", got)
	}
	if got := b.ReceivedFrom(0); got != 120 {
		t.Errorf("flow to B delivered %d of 120", got)
	}
	if !s.Idle() {
		t.Error("sender not idle after both queues drained")
	}
}

func TestPerDestQueuesRoundRobinFairness(t *testing.T) {
	// Two saturated queues with no conflicts share the sender evenly.
	m, sched, rng := matrixMedium([][]float64{
		{0, 70, 72},
		{70, 0, 75},
		{72, 75, 0},
	}, 85)
	cfg := fastConfig()
	cfg.PerDestQueues = true
	s := New(0, cfg, m, rng.Stream(10))
	a := New(1, cfg, m, rng.Stream(11))
	b := New(2, cfg, m, rng.Stream(12))
	dur := 10 * sim.Second
	a.Meter = &stats.Meter{Start: dur / 4, End: dur}
	b.Meter = &stats.Meter{Start: dur / 4, End: dur}
	s.SetSaturated(1)
	s.SetSaturated(2)
	sched.Run(dur)
	ta, tb := a.Meter.Mbps(), b.Meter.Mbps()
	if ta+tb < 4.5 {
		t.Errorf("two-queue aggregate = %.2f Mb/s, want ≈ single link", ta+tb)
	}
	ratio := ta / (ta + tb)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("unfair split: %.2f vs %.2f Mb/s", ta, tb)
	}
}

func TestPerDestQueuesSkipConflictedDestination(t *testing.T) {
	// The §3.2 optimisation itself: while x→y conflicts with S→A, the
	// sender keeps serving B instead of head-of-line blocking.
	m, sched, rng := matrixMedium([][]float64{
		// S(0) A(1) B(2) x(3) y(4)
		{0, 70, 72, 70, offAir},
		{70, 0, 80, 72, offAir},
		{72, 80, 0, 85, offAir},
		{70, 72, 85, 0, 68},
		{offAir, offAir, offAir, 68, 0},
	}, 87)
	cfg := fastConfig()
	cfg.PerDestQueues = true
	s := New(0, cfg, m, rng.Stream(10))
	a := New(1, cfg, m, rng.Stream(11))
	b := New(2, cfg, m, rng.Stream(12))
	x := New(3, cfg, m, rng.Stream(13))
	New(4, cfg, m, rng.Stream(14))
	// Seed the conflict: sending to A while x transmits loses (A : x→∗).
	s.DeferTab.add(deferKey{OurDst: addr(1), Src: addr(3), TheirDst: anyAddr}, 1000*sim.Second)

	x.SetSaturated(4)
	sched.Run(100 * sim.Millisecond) // x's stream is on the air
	var aDone, bDone sim.Time
	a.OnDeliver = func(_ int, seq uint32, now sim.Time) {
		if seq == 99 {
			aDone = now
		}
	}
	b.OnDeliver = func(_ int, seq uint32, now sim.Time) {
		if seq == 99 {
			bDone = now
		}
	}
	s.Enqueue(1, 100)
	s.Enqueue(2, 100)
	// Both flows finish within about 3 s; step until they have rather
	// than simulating the 60 s cap (most of this test's race-detector
	// time in make ci went to the idle remainder).
	for until := sched.Now() + sim.Second; (aDone == 0 || bDone == 0) && until <= 60*sim.Second; until += sim.Second {
		sched.Run(until)
	}
	if bDone == 0 {
		t.Fatal("flow to B never completed")
	}
	if aDone == 0 {
		t.Fatal("flow to A never completed (starved)")
	}
	if bDone >= aDone {
		t.Errorf("B (unconflicted) finished at %v, after A (conflicted) at %v — optimisation inactive", bDone, aDone)
	}
	if s.Counters().Defers == 0 {
		t.Error("sender never deferred for A despite the seeded conflict")
	}
}
