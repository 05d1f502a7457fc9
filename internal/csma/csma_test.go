package csma

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

// build wires a medium over the loss matrix and returns it plus a node
// constructor closure.
func build(lossDB [][]float64, seed uint64) (*medium.Medium, *sim.Scheduler, *sim.RNG) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	m := medium.New(sched, phy.DefaultParams(), &radio.Matrix{LossDB: lossDB},
		make([]geo.Point, len(lossDB)), rng.Stream(1))
	return m, sched, rng
}

// runFlow measures one saturated flow's goodput in Mbps over a short run.
func runFlow(t *testing.T, cfg Config, dur sim.Time) (float64, *Node, *Node) {
	t.Helper()
	m, sched, rng := build([][]float64{
		{0, 70},
		{70, 0},
	}, 7)
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	rx.Meter = &stats.Meter{Start: dur / 5, End: dur}
	tx.SetSaturated(1)
	sched.Run(dur)
	return rx.Meter.Mbps(), tx, rx
}

func TestSingleLinkThroughputWithACKs(t *testing.T) {
	got, tx, rx := runFlow(t, DefaultConfig(), 5*sim.Second)
	// Paper's 802.11a reference point: ≈5.07 Mb/s goodput at the 6 Mb/s
	// rate with 1400-byte packets. Allow a band for protocol-timing
	// differences.
	if got < 4.5 || got > 5.8 {
		t.Errorf("single-link goodput = %.2f Mb/s, want ≈5.0–5.5", got)
	}
	if rx.Counters().Duplicates > rx.Counters().Delivered/50 {
		t.Errorf("too many duplicates on a clean link: %+v", rx.Counters())
	}
	if tx.Counters().Dropped != 0 {
		t.Errorf("clean link dropped %d packets", tx.Counters().Dropped)
	}
}

func TestSingleLinkThroughputNoACKs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkACKs = false
	got, _, _ := runFlow(t, cfg, 5*sim.Second)
	// Without the SIFS+ACK exchange, goodput is slightly higher.
	if got < 4.8 || got > 6.0 {
		t.Errorf("no-ACK goodput = %.2f Mb/s, want ≈5.2–5.7", got)
	}
}

func TestTwoContendingSendersShareChannel(t *testing.T) {
	// Both senders in range of each other and the receiver: carrier sense
	// interleaves them; aggregate ≈ single-link, shares roughly fair.
	m, sched, rng := build([][]float64{
		{0, 70, 68},
		{70, 0, 70},
		{68, 70, 0},
	}, 21)
	cfg := DefaultConfig()
	a := New(0, cfg, m, rng.Stream(10))
	b := New(2, cfg, m, rng.Stream(12))
	rx := New(1, cfg, m, rng.Stream(11))
	dur := 5 * sim.Second
	rx.Meter = &stats.Meter{Start: dur / 5, End: dur}
	a.SetSaturated(1)
	b.SetSaturated(1)
	sched.Run(dur)
	agg := rx.Meter.Mbps()
	if agg < 4.0 || agg > 5.8 {
		t.Errorf("aggregate of two contenders = %.2f Mb/s, want ≈ single link", agg)
	}
	sa, sb := a.Counters().Sent, b.Counters().Sent
	ratio := float64(sa) / float64(sa+sb)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("unfair sharing: a sent %d, b sent %d", sa, sb)
	}
}

func TestHiddenTerminalsCollapseWithoutCS(t *testing.T) {
	// Hidden senders (cannot hear each other) both reaching one receiver:
	// with carrier sense OFF and saturation, collisions destroy most
	// packets even with ACKs/retries.
	loss := [][]float64{
		{0, 72, offAir},
		{72, 0, 73},
		{offAir, 73, 0},
	}
	dur := 5 * sim.Second

	run := func(cs bool) float64 {
		m, sched, rng := build(loss, 33)
		cfg := DefaultConfig()
		cfg.CarrierSense = cs
		a := New(0, cfg, m, rng.Stream(10))
		b := New(2, cfg, m, rng.Stream(12))
		rx := New(1, cfg, m, rng.Stream(11))
		rx.Meter = &stats.Meter{Start: dur / 5, End: dur}
		a.SetSaturated(1)
		b.SetSaturated(1)
		sched.Run(dur)
		return rx.Meter.Mbps()
	}
	without := run(false)
	if without > 1.5 {
		t.Errorf("hidden terminals without CS = %.2f Mb/s, want heavy collapse", without)
	}
	// Carrier sense cannot help hidden terminals either (senders cannot
	// hear each other) — the paper's Fig. 15 point.
	with := run(true)
	if with > 2.0 {
		t.Errorf("hidden terminals with CS = %.2f Mb/s, still expected collapse", with)
	}
}

func TestExposedTerminalsCSWastesCapacity(t *testing.T) {
	// Exposed configuration: two flows that could run concurrently.
	// With CS on, aggregate ≈ single-link rate; with CS off (+ACKs off to
	// avoid ACK-collision losses), aggregate ≈ 2×. This is Figure 12's
	// underlying mechanic.
	loss := [][]float64{
		// S1(0)  R1(1)  S2(2)  R2(3)
		{0, 68, 75, 108},
		{68, 0, 108, offAir},
		{75, 108, 0, 68},
		{108, offAir, 68, 0},
	}
	dur := 5 * sim.Second
	run := func(cs, acks bool) float64 {
		m, sched, rng := build(loss, 44)
		cfg := DefaultConfig()
		cfg.CarrierSense = cs
		cfg.LinkACKs = acks
		s1 := New(0, cfg, m, rng.Stream(10))
		s2 := New(2, cfg, m, rng.Stream(12))
		r1 := New(1, cfg, m, rng.Stream(11))
		r2 := New(3, cfg, m, rng.Stream(13))
		r1.Meter = &stats.Meter{Start: dur / 5, End: dur}
		r2.Meter = &stats.Meter{Start: dur / 5, End: dur}
		s1.SetSaturated(1)
		s2.SetSaturated(3)
		sched.Run(dur)
		return r1.Meter.Mbps() + r2.Meter.Mbps()
	}
	csOn := run(true, true)
	csOff := run(false, false)
	if csOn > 6.5 {
		t.Errorf("CS on aggregate = %.2f Mb/s; exposed senders should serialise near 5", csOn)
	}
	if csOff < 9.0 {
		t.Errorf("CS off aggregate = %.2f Mb/s, want ≈2× single link", csOff)
	}
	if csOff < csOn*1.6 {
		t.Errorf("exposed gain = %.2fx, want ≥1.6x (CS on %.2f, off %.2f)", csOff/csOn, csOn, csOff)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	// A marginal link (isolation PRR ≈ 0.7): ACKs+retries push delivery
	// well above one-shot PRR.
	p := phy.DefaultParams()
	r := phy.RateByID(phy.Rate6Mbps)
	lo, hi := phy.SensitivityDBm, -60.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if phy.IsolationPRR(r, mid, 1429) < 0.7 {
			lo = mid
		} else {
			hi = mid
		}
	}
	lossDB := p.TxPowerDBm - (lo+hi)/2
	m, sched, rng := build([][]float64{
		{0, lossDB},
		{lossDB, 0},
	}, 55)
	cfg := DefaultConfig()
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	tx.Enqueue(1, 200)
	sched.Run(30 * sim.Second)
	delivered := rx.Counters().Delivered
	if delivered < 190 {
		t.Errorf("delivered %d of 200 on a PRR≈0.7 link with retries, want ≥190", delivered)
	}
	if tx.Counters().AckTimeouts == 0 {
		t.Error("expected some ACK timeouts on a lossy link")
	}
}

func TestDedupOnRetries(t *testing.T) {
	// Force duplicate data receptions by making the reverse (ACK) link
	// marginal while the forward link is clean.
	p := phy.DefaultParams()
	m, sched, rng := build([][]float64{
		{0, 70},
		{70, 0},
	}, 66)
	_ = p
	cfg := DefaultConfig()
	// Shrink ACK reachability: simulate by sending many packets over a
	// clean link but with an rx that also transmits (collides with ACKs).
	// Simpler: deliver duplicates artificially via retry of unacked frames
	// on a clean link with an rx whose ACKs we suppress by turning its
	// LinkACKs off (rx never ACKs, tx retries everything).
	rxCfg := cfg
	rxCfg.LinkACKs = false
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, rxCfg, m, rng.Stream(11))
	tx.Enqueue(1, 5)
	sched.Run(5 * sim.Second)
	st := rx.Counters()
	if st.Delivered != 5 {
		t.Errorf("delivered = %d, want exactly 5 unique", st.Delivered)
	}
	if st.Duplicates == 0 {
		t.Error("expected duplicate receptions when ACKs never arrive")
	}
	if tx.Counters().Dropped != 5 {
		t.Errorf("tx dropped = %d, want 5 (retry limit exhausted)", tx.Counters().Dropped)
	}
}

func TestEnqueueAfterIdleRestarts(t *testing.T) {
	m, sched, rng := build([][]float64{
		{0, 70},
		{70, 0},
	}, 77)
	cfg := DefaultConfig()
	tx := New(0, cfg, m, rng.Stream(10))
	rx := New(1, cfg, m, rng.Stream(11))
	tx.Enqueue(1, 2)
	sched.Run(1 * sim.Second)
	if rx.Counters().Delivered != 2 {
		t.Fatalf("first batch delivered %d, want 2", rx.Counters().Delivered)
	}
	// Node is now idle; a later enqueue must restart access.
	tx.Enqueue(1, 3)
	sched.Run(2 * sim.Second)
	if rx.Counters().Delivered != 5 {
		t.Errorf("after second batch delivered %d, want 5", rx.Counters().Delivered)
	}
	if tx.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", tx.QueueLen())
	}
}

func TestCarrierSenseDefersDuringForeignTransmission(t *testing.T) {
	// Node 2 saturates to 1; node 0 enqueues one packet mid-transmission
	// and must defer until the channel clears (no collision at 1).
	m, sched, rng := build([][]float64{
		{0, 70, 68},
		{70, 0, 70},
		{68, 70, 0},
	}, 88)
	cfg := DefaultConfig()
	a := New(0, cfg, m, rng.Stream(10))
	b := New(2, cfg, m, rng.Stream(12))
	rx := New(1, cfg, m, rng.Stream(11))
	b.SetSaturated(1)
	sched.Run(100 * sim.Millisecond)
	a.Enqueue(1, 20)
	sched.Run(3 * sim.Second)
	// All of a's packets delivered despite b's saturation.
	delivered := rx.Counters().Delivered
	if a.QueueLen() != 0 || a.Counters().Dropped > 2 {
		t.Errorf("a: queue=%d dropped=%d, expected near-complete delivery", a.QueueLen(), a.Counters().Dropped)
	}
	if delivered == 0 {
		t.Error("receiver got nothing")
	}
}

func BenchmarkSaturatedLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, sched, rng := build([][]float64{
			{0, 70},
			{70, 0},
		}, uint64(i+1))
		cfg := DefaultConfig()
		tx := New(0, cfg, m, rng.Stream(10))
		rx := New(1, cfg, m, rng.Stream(11))
		rx.Meter = &stats.Meter{Start: 0, End: sim.Second}
		tx.SetSaturated(1)
		sched.Run(sim.Second)
	}
}
