package core

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Direct defer-table tests: expiry boundaries, wildcard (anyAddr)
// matching, and prune behaviour, exercised at the table level rather
// than through the §3.1 update rules.

func TestDeferExpiryBoundaryExact(t *testing.T) {
	tab := newDeferTable()
	dst, src, theirDst := addr(1), addr(2), addr(3)
	exp := 100 * sim.Millisecond
	tab.add(deferKey{OurDst: anyAddr, Src: src, TheirDst: theirDst, Rate: 0}, exp)
	// Entries are live strictly before expiry and dead exactly at it.
	if !tab.conflicts(exp-1, dst, src, theirDst, 0) {
		t.Error("entry dead one tick before expiry")
	}
	if tab.conflicts(exp, dst, src, theirDst, 0) {
		t.Error("entry live exactly at expiry")
	}
	if tab.conflicts(exp+1, dst, src, theirDst, 0) {
		t.Error("entry live after expiry")
	}
	// Expired entries linger in the map until pruned, but never match.
	if tab.size() != 1 {
		t.Fatalf("size = %d before prune, want 1", tab.size())
	}
	tab.prune(exp)
	if tab.size() != 0 {
		t.Errorf("size = %d after prune at expiry, want 0", tab.size())
	}
}

func TestDeferTableSizeCountsLiveEntries(t *testing.T) {
	// A node with no flows never reaches trySend, the defer table's
	// prune site, so an expired entry stays stored; it must not count.
	m, sched, rng := matrixMedium([][]float64{{0, 70}, {70, 0}}, 5)
	n := New(0, DefaultConfig(), m, rng.Stream(10))
	n.DeferTab.add(deferKey{OurDst: anyAddr, Src: addr(1), TheirDst: addr(2)}, 10*sim.Millisecond)
	n.DeferTab.add(deferKey{OurDst: anyAddr, Src: addr(1), TheirDst: addr(3)}, sim.Second)
	if got := n.DeferTableSize(); got != 2 {
		t.Fatalf("DeferTableSize = %d with both entries live, want 2", got)
	}
	sched.Run(10 * sim.Millisecond)
	if got, stored := n.DeferTableSize(), n.DeferTab.size(); got != 1 || stored != 2 {
		t.Errorf("at the first entry's expiry: DeferTableSize = %d over %d stored, want 1 over 2", got, stored)
	}
	if got := n.Counters().DeferEntries; got != 1 {
		t.Errorf("Counters().DeferEntries = %d, want 1", got)
	}
}

func TestDeferAddNeverShrinksExpiry(t *testing.T) {
	tab := newDeferTable()
	k := deferKey{OurDst: addr(1), Src: addr(2), TheirDst: anyAddr, Rate: 0}
	tab.add(k, 9*sim.Second)
	tab.add(k, 2*sim.Second) // stale refresh
	if !tab.conflicts(8*sim.Second, addr(1), addr(2), addr(5), 0) {
		t.Error("stale add shortened the entry's lifetime")
	}
	tab.add(k, 12*sim.Second)
	if !tab.conflicts(11*sim.Second, addr(1), addr(2), addr(5), 0) {
		t.Error("fresher add did not extend the entry's lifetime")
	}
}

func TestDeferWildcardTheirDst(t *testing.T) {
	// Pattern 2, (v : p→∗): entry keyed on our destination v with a
	// wildcard for the interferer's destination.
	tab := newDeferTable()
	v, p := addr(10), addr(11)
	tab.add(deferKey{OurDst: v, Src: p, TheirDst: anyAddr, Rate: 0}, sim.Second)
	for _, theirDst := range []frame.Addr{addr(1), addr(99), frame.Broadcast} {
		if !tab.conflicts(0, v, p, theirDst, 0) {
			t.Errorf("wildcard TheirDst failed to match p→%v", theirDst)
		}
	}
	// The wildcard is on their destination only: our destination and the
	// source must still match exactly.
	if tab.conflicts(0, addr(12), p, addr(1), 0) {
		t.Error("(v : p→∗) matched a different own-destination")
	}
	if tab.conflicts(0, v, addr(12), addr(1), 0) {
		t.Error("(v : p→∗) matched a different interference source")
	}
}

func TestDeferWildcardOurDst(t *testing.T) {
	// Pattern 1, (∗ : p→q): wildcard on our destination, exact on the
	// ongoing transmission p→q.
	tab := newDeferTable()
	p, q := addr(20), addr(21)
	tab.add(deferKey{OurDst: anyAddr, Src: p, TheirDst: q, Rate: 0}, sim.Second)
	for _, ourDst := range []frame.Addr{addr(1), addr(50), frame.Broadcast} {
		if !tab.conflicts(0, ourDst, p, q, 0) {
			t.Errorf("wildcard OurDst failed to match while sending to %v", ourDst)
		}
	}
	if tab.conflicts(0, addr(1), p, addr(22), 0) {
		t.Error("(∗ : p→q) matched a different ongoing destination")
	}
	if tab.conflicts(0, addr(1), addr(22), q, 0) {
		t.Error("(∗ : p→q) matched a different ongoing source")
	}
}

func TestDeferFullyConcreteEntryNeverMatches(t *testing.T) {
	// conflicts() only probes the two §3.2 patterns; an entry with no
	// wildcard in either slot is unreachable and must not fire.
	tab := newDeferTable()
	tab.add(deferKey{OurDst: addr(1), Src: addr(2), TheirDst: addr(3), Rate: 0}, sim.Second)
	if tab.conflicts(0, addr(1), addr(2), addr(3), 0) {
		t.Error("fully concrete entry matched; defer patterns must carry a wildcard")
	}
}

func TestDeferWildcardsAreIndependent(t *testing.T) {
	// Both patterns can coexist for the same interferer; each matches its
	// own probe shape and expires independently.
	tab := newDeferTable()
	v, p, q := addr(30), addr(31), addr(32)
	tab.add(deferKey{OurDst: v, Src: p, TheirDst: anyAddr, Rate: 0}, 2*sim.Second)
	tab.add(deferKey{OurDst: anyAddr, Src: p, TheirDst: q, Rate: 0}, 4*sim.Second)
	if !tab.conflicts(sim.Second, v, p, addr(40), 0) {
		t.Error("pattern 2 miss while both live")
	}
	if !tab.conflicts(sim.Second, addr(41), p, q, 0) {
		t.Error("pattern 1 miss while both live")
	}
	// After the first expires, only the pattern-1 entry remains.
	if tab.conflicts(3*sim.Second, v, p, addr(40), 0) {
		t.Error("expired pattern-2 entry still matches")
	}
	if !tab.conflicts(3*sim.Second, addr(41), p, q, 0) {
		t.Error("pattern-1 entry expired early")
	}
	tab.prune(3 * sim.Second)
	if tab.size() != 1 {
		t.Errorf("size after partial prune = %d, want 1", tab.size())
	}
}

func TestDeferPruneKeepsLiveEntries(t *testing.T) {
	tab := newDeferTable()
	for i := 0; i < 10; i++ {
		tab.add(deferKey{OurDst: anyAddr, Src: addr(i), TheirDst: addr(100 + i), Rate: 0},
			sim.Time(i+1)*sim.Second)
	}
	tab.prune(5 * sim.Second)
	if tab.size() != 5 {
		t.Fatalf("size after prune = %d, want the 5 live entries", tab.size())
	}
	for i := 5; i < 10; i++ {
		if !tab.conflicts(5*sim.Second, addr(50), addr(i), addr(100+i), 0) {
			t.Errorf("live entry %d lost by prune", i)
		}
	}
}

func TestAnyAddrNeverCollidesWithRealNodes(t *testing.T) {
	// The wildcard sentinel is the zero address; AddrFromID must never
	// produce it, or a real node would act as a wildcard.
	for id := 0; id < 4096; id++ {
		if frame.AddrFromID(id) == anyAddr {
			t.Fatalf("AddrFromID(%d) equals the wildcard sentinel", id)
		}
	}
	if frame.Broadcast == anyAddr {
		t.Fatal("broadcast address equals the wildcard sentinel")
	}
}
