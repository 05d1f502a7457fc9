package core

import (
	"repro/internal/checkpoint"
	"repro/internal/frame"
	"repro/internal/sim"
)

// anyAddr is the wildcard in defer-table entries ((v : x→∗) and
// (∗ : x→y)). The zero address is never a real node (AddrFromID always
// sets the locally-administered bit), so it is safe as a sentinel.
var anyAddr frame.Addr

// deferKey identifies one defer-table entry at a node u:
// "if u sends to OurDst while a transmission Src→TheirDst is ongoing at
// rate Rate, throughput drops" (§3.1). OurDst or TheirDst may be anyAddr.
type deferKey struct {
	OurDst   frame.Addr
	Src      frame.Addr
	TheirDst frame.Addr
	Rate     uint8
}

// deferTable is a node's slice of the network-wide conflict map: entries
// expire so the map adapts to changing channels.
type deferTable struct {
	Entries checkpoint.Map[deferKey, sim.Time] `json:"entries,omitempty"` // expiry per entry
}

// add inserts or refreshes an entry.
func (t *deferTable) add(k deferKey, expiry sim.Time) {
	if cur, ok := t.Entries[k]; !ok || expiry > cur {
		t.Entries[k] = k.expireSentinel(expiry)
	}
}

func (k deferKey) expireSentinel(e sim.Time) sim.Time { return e }

// applyRules folds a received interferer list from node r into the table
// using the paper's two update rules (§3.1):
//
//	Rule 1: ∀q : (me, q) ∈ Ir  →  add (r : q→∗)
//	Rule 2: ∀q : (q, me) ∈ Ir  →  add (∗ : q→r)
func (t *deferTable) applyRules(me frame.Addr, list *frame.InterfererList, expiry sim.Time) {
	for _, e := range list.Entries {
		if e.Source == me {
			t.add(deferKey{OurDst: list.Src, Src: e.Interferer, TheirDst: anyAddr, Rate: e.Rate}, expiry)
		}
		if e.Interferer == me {
			t.add(deferKey{OurDst: anyAddr, Src: e.Source, TheirDst: list.Src, Rate: e.Rate}, expiry)
		}
	}
}

// conflicts reports whether sending to dst conflicts with an ongoing
// transmission src→theirDst at the given rate, by the two defer patterns
// of §3.2:
//
//	Pattern 1: (∗ : p→q)
//	Pattern 2: (v : p→∗)
func (t *deferTable) conflicts(now sim.Time, dst, src, theirDst frame.Addr, rate uint8) bool {
	if exp, ok := t.Entries[deferKey{OurDst: anyAddr, Src: src, TheirDst: theirDst, Rate: rate}]; ok && exp > now {
		return true
	}
	if exp, ok := t.Entries[deferKey{OurDst: dst, Src: src, TheirDst: anyAddr, Rate: rate}]; ok && exp > now {
		return true
	}
	return false
}

// prune removes expired entries.
func (t *deferTable) prune(now sim.Time) {
	for k, exp := range t.Entries {
		if exp <= now {
			delete(t.Entries, k)
		}
	}
}

// size returns the number of live entries (including any not yet pruned
// but unexpired).
func (t *deferTable) size() int { return len(t.Entries) }

// pairKey identifies a (source, interferer) pair in a receiver's
// interference statistics and interferer list.
type pairKey struct {
	Source     frame.Addr
	Interferer frame.Addr
	Rate       uint8
}

// interfStat accumulates per-pair loss evidence: of Expected data packets
// from Source whose reception overlapped a transmission by Interferer,
// Lost were not delivered. Counters decay with a half-life so stale
// conflicts fade.
type interfStat struct {
	Expected float64 `json:"expected"`
	Lost     float64 `json:"lost"`
	// LastDecay is when the counters were last halved.
	LastDecay sim.Time `json:"last_decay"`
}

// lossRate returns Lost/Expected or 0 when empty.
func (s *interfStat) lossRate() float64 {
	if s.Expected == 0 {
		return 0
	}
	return s.Lost / s.Expected
}

// decay halves the counters once per half-life elapsed.
func (s *interfStat) decay(now sim.Time, halfLife sim.Time) {
	if halfLife <= 0 {
		return
	}
	for s.LastDecay+halfLife <= now {
		s.Expected /= 2
		s.Lost /= 2
		s.LastDecay += halfLife
	}
}
