package core

import (
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
	"repro/internal/frame"
	"repro/internal/sim"
)

func addr(id int) frame.Addr { return frame.AddrFromID(id) }

func TestDeferRulesFromPaperExample(t *testing.T) {
	// Figure 4: receiver v's interferer list holds (u, x). When u receives
	// it, Rule 1 adds (v : x→∗); when x receives it, Rule 2 adds (∗ : u→v).
	u, v, x, y, z := addr(1), addr(2), addr(3), addr(4), addr(5)
	list := &frame.InterfererList{Src: v, Entries: []frame.InterferenceEntry{{Source: u, Interferer: x}}}

	now := sim.Time(0)
	exp := 10 * sim.Second

	// At u:
	tu := newDeferTable()
	tu.applyRules(u, list, exp)
	if !tu.conflicts(now, v, x, y, 0) {
		t.Error("u must defer sending to v while x→y ongoing (Rule 1, pattern (v : x→∗))")
	}
	if !tu.conflicts(now, v, x, frame.Broadcast, 0) {
		t.Error("u must defer to x sending to anyone")
	}
	if tu.conflicts(now, z, x, y, 0) {
		t.Error("u may transmit to z while x is transmitting (Rule 2 does not apply at u)")
	}
	if tu.conflicts(now, v, y, x, 0) {
		t.Error("u must not defer to transmissions from other sources")
	}

	// At x:
	tx := newDeferTable()
	tx.applyRules(x, list, exp)
	if !tx.conflicts(now, y, u, v, 0) {
		t.Error("x must defer sending to anyone while u→v ongoing (Rule 2, pattern (∗ : u→v))")
	}
	if !tx.conflicts(now, z, u, v, 0) {
		t.Error("x must defer for any of its destinations while u→v ongoing")
	}
	if tx.conflicts(now, y, u, z, 0) {
		t.Error("x may transmit while u sends to z ≠ v (Rule 1 does not apply at x)")
	}

	// At an uninvolved node w, neither rule applies.
	tw := newDeferTable()
	tw.applyRules(addr(9), list, exp)
	if tw.size() != 0 {
		t.Errorf("bystander built %d defer entries, want 0", tw.size())
	}
}

func TestDeferEntryExpiry(t *testing.T) {
	u, v, x := addr(1), addr(2), addr(3)
	tab := newDeferTable()
	list := &frame.InterfererList{Src: v, Entries: []frame.InterferenceEntry{{Source: u, Interferer: x}}}
	tab.applyRules(u, list, 5*sim.Second)
	if !tab.conflicts(4*sim.Second, v, x, addr(7), 0) {
		t.Fatal("entry should be live before expiry")
	}
	if tab.conflicts(5*sim.Second, v, x, addr(7), 0) {
		t.Error("entry should be dead at expiry")
	}
	tab.prune(6 * sim.Second)
	if tab.size() != 0 {
		t.Errorf("prune left %d entries", tab.size())
	}
}

func TestDeferRefreshExtends(t *testing.T) {
	u, v, x := addr(1), addr(2), addr(3)
	tab := newDeferTable()
	list := &frame.InterfererList{Src: v, Entries: []frame.InterferenceEntry{{Source: u, Interferer: x}}}
	tab.applyRules(u, list, 5*sim.Second)
	tab.applyRules(u, list, 9*sim.Second)
	if !tab.conflicts(8*sim.Second, v, x, addr(7), 0) {
		t.Error("refresh should extend expiry")
	}
	// Re-applying with an earlier expiry must not shorten it.
	tab.applyRules(u, list, 2*sim.Second)
	if !tab.conflicts(8*sim.Second, v, x, addr(7), 0) {
		t.Error("stale refresh shortened the entry")
	}
}

func TestDeferRateAnnotations(t *testing.T) {
	// §3.5: entries are annotated with bit-rates; a conflict observed at
	// rate 2 must not force deferral at rate 0.
	u, v, x := addr(1), addr(2), addr(3)
	tab := newDeferTable()
	list := &frame.InterfererList{Src: v, Entries: []frame.InterferenceEntry{{Source: u, Interferer: x, Rate: 2}}}
	tab.applyRules(u, list, 10*sim.Second)
	if !tab.conflicts(0, v, x, addr(7), 2) {
		t.Error("conflict at annotated rate not detected")
	}
	if tab.conflicts(0, v, x, addr(7), 0) {
		t.Error("conflict leaked across rate annotations")
	}
}

func TestDeferTableQuickProperties(t *testing.T) {
	// Property: applying a list at node m creates pattern-1 entries only
	// for (m, q) pairs and pattern-2 entries only for (q, m) pairs.
	f := func(srcIDs, interfIDs []uint8, meID, rID uint8) bool {
		if len(srcIDs) > len(interfIDs) {
			srcIDs = srcIDs[:len(interfIDs)]
		}
		me := addr(int(meID))
		r := addr(int(rID) + 300) // receiver distinct from everyone
		list := &frame.InterfererList{Src: r}
		for i := range srcIDs {
			list.Entries = append(list.Entries, frame.InterferenceEntry{
				Source:     addr(int(srcIDs[i])),
				Interferer: addr(int(interfIDs[i])),
			})
		}
		tab := newDeferTable()
		tab.applyRules(me, list, sim.Second)
		for _, e := range list.Entries {
			// Pattern 1 fires for interferer q iff SOME entry (me, q) exists.
			wantP1 := false
			for _, o := range list.Entries {
				if o.Source == me && o.Interferer == e.Interferer {
					wantP1 = true
				}
			}
			if tab.conflicts(0, r, e.Interferer, addr(999), 0) != wantP1 {
				return false
			}
			// Pattern 2 fires for source q iff SOME entry (q, me) exists.
			wantP2 := false
			for _, o := range list.Entries {
				if o.Interferer == me && o.Source == e.Source {
					wantP2 = true
				}
			}
			if tab.conflicts(0, addr(998), e.Source, r, 0) != wantP2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterfStatDecay(t *testing.T) {
	s := &interfStat{Expected: 64, Lost: 48}
	if got := s.lossRate(); got != 0.75 {
		t.Errorf("lossRate = %v, want 0.75", got)
	}
	s.decay(10*sim.Second, 5*sim.Second)
	if s.Expected != 16 || s.Lost != 12 {
		t.Errorf("after two half-lives: %v/%v, want 12/16", s.Lost, s.Expected)
	}
	if got := s.lossRate(); got != 0.75 {
		t.Errorf("decay changed the rate: %v", got)
	}
	empty := &interfStat{}
	if empty.lossRate() != 0 {
		t.Error("empty stat lossRate should be 0")
	}
	empty.decay(sim.Second, 0) // zero half-life: no-op, no hang
}

func TestObservationsMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nvpkt = 4
	o := newObservations(cfg)
	src, dst := addr(1), addr(2)
	k := obsKey{Src: src, VSeq: 7}

	// Heard at 101 ms, then (a frame processed out of order) at 96 ms.
	o.upsert(k, dst, 0, 100*sim.Millisecond, 120*sim.Millisecond, 101*sim.Millisecond)
	o.upsert(k, dst, 0, 95*sim.Millisecond, 118*sim.Millisecond, 96*sim.Millisecond)
	e := o.find(k)
	if e.EstStart != 95*sim.Millisecond || e.EstEnd != 120*sim.Millisecond {
		t.Errorf("merged interval [%v,%v], want [95ms,120ms]", e.EstStart, e.EstEnd)
	}
	if want := 96*sim.Millisecond + cfg.Turnaround; e.VisibleAt != want {
		t.Errorf("VisibleAt = %v, want %v (earliest hearing plus turnaround)", e.VisibleAt, want)
	}
}

func TestObservationsOngoingAndVisibility(t *testing.T) {
	cfg := DefaultConfig()
	o := newObservations(cfg)
	k := obsKey{Src: addr(1), VSeq: 1}
	o.upsert(k, addr(2), 0, 0, 50*sim.Millisecond, 10*sim.Millisecond-cfg.Turnaround) // visible at 10 ms

	count := func(now sim.Time) int {
		c := 0
		o.ongoing(now, func(*obsEntry) { c++ })
		return c
	}
	if count(5*sim.Millisecond) != 0 {
		t.Error("entry visible before the software MAC processed it")
	}
	if count(20*sim.Millisecond) != 1 {
		t.Error("entry not visible after processing")
	}
	if count(50*sim.Millisecond) != 0 {
		t.Error("entry still ongoing after its end")
	}
}

func TestObservationsOverlapExcludesSource(t *testing.T) {
	cfg := DefaultConfig()
	o := newObservations(cfg)
	o.upsert(obsKey{Src: addr(1), VSeq: 1}, addr(2), 0, 0, 10*sim.Millisecond, 0)
	o.upsert(obsKey{Src: addr(3), VSeq: 1}, addr(4), 0, 0, 10*sim.Millisecond, 0)
	var got []frame.Addr
	o.overlapping(5*sim.Millisecond, addr(1), func(e *obsEntry) { got = append(got, e.Src) })
	if len(got) != 1 || got[0] != addr(3) {
		t.Errorf("overlapping returned %v, want just node 3", got)
	}
}

func TestObservationsPrune(t *testing.T) {
	cfg := DefaultConfig()
	o := newObservations(cfg)
	o.upsert(obsKey{Src: addr(1), VSeq: 1}, addr(2), 0, 0, 10*sim.Millisecond, 0)
	o.prune(10*sim.Millisecond + o.retention() + 1)
	if o.size() != 0 {
		t.Errorf("prune left %d entries", o.size())
	}
}

func TestConfigDerivedValues(t *testing.T) {
	cfg := DefaultConfig()
	// §4.2: a 32-packet virtual packet at 6 Mb/s takes ≈62 ms.
	air := cfg.vpktAirtime(cfg.Nvpkt)
	if air < 55*sim.Millisecond || air > 70*sim.Millisecond {
		t.Errorf("vpkt airtime = %v, want ≈62ms", air)
	}
	tauMin, tauMax := cfg.tauBounds()
	if tauMax != sim.Time(cfg.Nwindow)*air {
		t.Errorf("tauMax = %v, want window airtime %v", tauMax, sim.Time(cfg.Nwindow)*air)
	}
	if tauMin != tauMax/2 {
		t.Errorf("tauMin = %v, want tauMax/2", tauMin)
	}
	if cfg.windowPackets() != 256 {
		t.Errorf("window = %d data packets, want 256", cfg.windowPackets())
	}
	// Explicit overrides are respected.
	cfg.TauMin, cfg.TauMax = sim.Millisecond, 2*sim.Millisecond
	a, b := cfg.tauBounds()
	if a != sim.Millisecond || b != 2*sim.Millisecond {
		t.Error("explicit tau bounds ignored")
	}
}

func newDeferTable() *deferTable {
	return &deferTable{Entries: make(checkpoint.Map[deferKey, sim.Time])}
}

func newObservations(cfg Config) *observations { return &observations{cfg: &cfg} }
