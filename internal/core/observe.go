package core

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// obsKey identifies one overheard virtual packet.
type obsKey struct {
	Src  frame.Addr
	VSeq uint32
}

// obsEntry is the node's knowledge of one transmission it overheard: who
// is sending to whom, at what rate, and the estimated on-air interval.
// Entries are built from any decodable piece of a virtual packet — the
// header announces the whole interval, a trailer back-dates it, and data
// packets locate it from their index (§3.2's ongoing list, generalised
// into a short history used for both the access decision and interferer
// attribution).
type obsEntry struct {
	Src  frame.Addr `json:"src"`
	VSeq uint32     `json:"vseq"`
	Dst  frame.Addr `json:"dst"`
	Rate uint8      `json:"rate"`
	// EstStart and EstEnd bound the virtual packet on the air.
	EstStart sim.Time `json:"est_start"`
	EstEnd   sim.Time `json:"est_end"`
	// VisibleAt is when the software MAC has processed the first frame of
	// this entry (decode time + turnaround); the access decision cannot
	// act on it earlier (§4.1).
	VisibleAt sim.Time `json:"visible_at"`
}

// observations is the per-node table of overheard transmissions.
// Every node keeps it to the last retention() of history: upsert, the
// one place the table grows, prunes it before it adds an entry, so a
// node that never sends is bounded exactly like one that does. Over a
// retention a node hears at most a few virtual packets per neighbouring
// sender, so the table holds a handful of entries. Pruned entries park
// on a free list that the next added entry takes from, so the
// steady-state observation flow (one entry per overheard virtual
// packet) does not touch the allocator. Under loss the table's size
// wanders, and reaches a new high now and then long after warm-up; an
// empty free list is therefore refilled eight entries at a time.
//
// The table is a slice searched linearly. Its order is arrival order
// perturbed by prune and means nothing. Every walker is
// order-independent by construction: ongoing's caller keeps a minimum,
// and overlapping's caller does decay(now) (idempotent at one now),
// Expected++ and Lost++ on a per-(source, interferer, rate) stat, so
// visiting the same set of entries in any order leaves the same state.
// Entries is stored in its live order, so a resumed node walks them
// exactly as the original did; cfg points at the node's Config and free
// is a pool, both re-linked.
type observations struct {
	Entries []*obsEntry `json:"entries,omitempty"`
	cfg     *Config
	free    []*obsEntry
}

// find returns the entry for k, or nil.
func (o *observations) find(k obsKey) *obsEntry {
	for _, e := range o.Entries {
		if e.Src == k.Src && e.VSeq == k.VSeq {
			return e
		}
	}
	return nil
}

// retention is how long a finished transmission stays in the table for
// loss attribution before pruning: two virtual-packet airtimes, or one
// airtime plus the finalisation grace if that is longer (virtual
// packets of one or two data packets, whose airtime is shorter than
// TackWait). Pruning an entry that ended more than a retention ago
// changes no outcome:
//
//   - A receiver finalises a virtual packet by its trailer, by FinTimer
//     or by the next vseq's first frame, and all three come no later
//     than FinTimer: the packet's vpktAirtime plus finGrace after its
//     start, and vpktAirtime(Nvpkt) bounds that airtime. So every slot
//     midpoint an open or later finalizeVpkt reads lies at or after
//     now − retention, and an entry with EstEnd < now − retention
//     covers none of them.
//   - ongoing reads only entries with EstEnd > now.
//   - A (Src, VSeq) pair is never reused, so no later frame looks up a
//     pruned key.
//
// Under the default config (61 ms virtual packets, 5 ms TackWait) the
// retention is two airtimes, 122 ms.
func (o *observations) retention() sim.Time {
	air := o.cfg.vpktAirtime(o.cfg.Nvpkt)
	return max(2*air, air+o.cfg.finGrace())
}

// upsert merges an interval estimate for (src, vseq), heard at now.
// Before it adds an entry it prunes, which bounds the table.
func (o *observations) upsert(k obsKey, dst frame.Addr, rate uint8, start, end, now sim.Time) *obsEntry {
	visible := now + Turnaround
	e := o.find(k)
	if e == nil {
		o.prune(now)
		if f := len(o.free); f > 0 {
			e = o.free[f-1]
			o.free = o.free[:f-1]
		} else {
			chunk := make([]obsEntry, 8)
			for i := 1; i < len(chunk); i++ {
				o.free = append(o.free, &chunk[i])
			}
			e = &chunk[0]
		}
		*e = obsEntry{Src: k.Src, Dst: dst, Rate: rate, VSeq: k.VSeq,
			EstStart: start, EstEnd: end, VisibleAt: visible}
		o.Entries = append(o.Entries, e)
		return e
	}
	if start < e.EstStart {
		e.EstStart = start
	}
	if end > e.EstEnd {
		e.EstEnd = end
	}
	if visible < e.VisibleAt {
		e.VisibleAt = visible
	}
	return e
}

// noteHeader records an overheard virtual-packet header.
func (o *observations) noteHeader(c *frame.Control, info phy.RxInfo, now sim.Time) {
	end := info.Start + sim.Time(c.TxTimeMicros)*sim.Microsecond
	o.upsert(obsKey{Src: c.Src, VSeq: c.Seq}, c.Dst, c.Rate, info.Start, end, now)
}

// noteTrailer records an overheard virtual-packet trailer, back-dating
// the interval by the announced transmission time.
func (o *observations) noteTrailer(c *frame.Control, info phy.RxInfo, now sim.Time) {
	start := info.End - sim.Time(c.TxTimeMicros)*sim.Microsecond
	o.upsert(obsKey{Src: c.Src, VSeq: c.Seq}, c.Dst, c.Rate, start, info.End, now)
}

// noteData records an overheard data packet, locating the whole virtual
// packet from the packet's index.
func (o *observations) noteData(d *frame.Data, info phy.RxInfo, now sim.Time) {
	start := info.Start - o.cfg.controlAirtime() - sim.Time(d.Index)*o.cfg.dataAirtime()
	end := start + o.cfg.vpktAirtime(o.cfg.Nvpkt)
	o.upsert(obsKey{Src: d.Src, VSeq: d.VSeq}, d.Dst, uint8(o.cfg.Rate), start, end, now)
}

// markEnded clamps an entry's end time (a trailer was heard, so the
// transmission is definitely over).
func (o *observations) markEnded(src frame.Addr, vseq uint32, end sim.Time) {
	if e := o.find(obsKey{Src: src, VSeq: vseq}); e != nil && end < e.EstEnd {
		e.EstEnd = end
	}
}

// ongoing calls fn for every transmission believed to still be on the air
// and visible to the software MAC.
func (o *observations) ongoing(now sim.Time, fn func(*obsEntry)) {
	for _, e := range o.Entries {
		if e.EstEnd > now && e.VisibleAt <= now {
			fn(e)
		}
	}
}

// overlapping calls fn for every known transmission (current or recent)
// from a source other than excl whose interval covers t.
func (o *observations) overlapping(t sim.Time, excl frame.Addr, fn func(*obsEntry)) {
	for _, e := range o.Entries {
		if e.Src != excl && e.EstStart <= t && t < e.EstEnd {
			fn(e)
		}
	}
}

// prune drops entries that ended longer than the retention ago.
func (o *observations) prune(now sim.Time) {
	horizon := now - o.retention()
	kept := o.Entries[:0]
	for _, e := range o.Entries {
		if e.EstEnd < horizon {
			o.free = append(o.free, e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(o.Entries[len(kept):])
	o.Entries = kept
}

// size returns the table size (diagnostics).
func (o *observations) size() int { return len(o.Entries) }
