package core

import (
	"testing"

	"repro/internal/sim"
)

// TestWindowInvariantUnderLoss checks the send and receive windows after
// every event of a hidden-terminal run, where each sender destroys
// frames at the other's receiver, so partial ACKs and retransmission
// timeouts are the normal case: a sender's unacknowledged set holds at most a window
// of packets, each one it has sent, and its retransmission queue lists
// sent packets in ascending order; a receiver's selective set holds only
// packets above its cumulative point.
func TestWindowInvariantUnderLoss(t *testing.T) {
	for _, nwindow := range []int{1, 2, 8} {
		m, sched, rng := matrixMedium([][]float64{
			// S1(0) R1(1) S2(2) R2(3)
			{0, 68, offAir, 71},
			{68, 0, 71, offAir},
			{offAir, 71, 0, 68},
			{71, offAir, 68, 0},
		}, 29)
		cfg := fastConfig()
		cfg.Nwindow = nwindow
		nodes := make([]*Node, 4)
		for id := range nodes {
			nodes[id] = New(id, cfg, m, rng.Stream(uint64(10+id)))
		}
		nodes[0].SetSaturated(1)
		nodes[2].SetSaturated(3)
		for sched.Now() < 10*sim.Second && sched.Step() {
			for id, n := range nodes {
				for _, f := range n.Flows {
					if k := f.Unacked.Len(); k > n.cfg.windowPackets() {
						t.Fatalf("win=%d node %d at %v: %d packets unacknowledged, window %d", nwindow, id, sched.Now(), k, n.cfg.windowPackets())
					}
					walked := 0
					low, _ := f.Unacked.First()
					for s, ok := f.Unacked.First(); ok; s, ok = f.Unacked.Next(s) {
						walked++
						if s-low >= uint32(3*n.cfg.windowPackets()) {
							t.Fatalf("win=%d node %d at %v: unacknowledged packets %d and %d span more than three windows", nwindow, id, sched.Now(), low, s)
						}
						if s >= f.NextPktSeq {
							t.Fatalf("win=%d node %d at %v: packet %d unacknowledged but never sent (next %d)", nwindow, id, sched.Now(), s, f.NextPktSeq)
						}
					}
					if walked != f.Unacked.Len() {
						t.Fatalf("win=%d node %d: walked %d members of a set of %d", nwindow, id, walked, f.Unacked.Len())
					}
					for i, s := range f.Retx {
						if s >= f.NextPktSeq || i > 0 && s <= f.Retx[i-1] {
							t.Fatalf("win=%d node %d at %v: retransmission queue %v out of order or unsent", nwindow, id, sched.Now(), f.Retx)
						}
					}
				}
				for _, f := range n.Rx {
					if s, ok := f.Sack.First(); ok && s <= f.Cum {
						t.Fatalf("win=%d node %d at %v: packet %d selectively held at or below the cumulative point %d", nwindow, id, sched.Now(), s, f.Cum)
					}
					for s, ok := f.Sack.First(); ok; s, ok = f.Sack.Next(s) {
						if s-f.Cum >= uint32(3*n.cfg.windowPackets()) {
							t.Fatalf("win=%d node %d at %v: packet %d held more than three windows above the cumulative point %d", nwindow, id, sched.Now(), s, f.Cum)
						}
					}
				}
			}
		}
		if nodes[0].Counters().RetxTimeouts+nodes[2].Counters().RetxTimeouts == 0 {
			t.Errorf("win=%d: no retransmission timeout in a lossy run", nwindow)
		}
		if nodes[1].ReceivedFrom(0)+nodes[3].ReceivedFrom(2) == 0 {
			t.Errorf("win=%d: nothing delivered", nwindow)
		}
	}
}
