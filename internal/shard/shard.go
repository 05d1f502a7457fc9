package shard

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
)

// handoff is one cross-shard transmission notice: enough to reconstruct
// the signal at the receiving shard. The frame travels as marshalled
// bytes so the receiving shard owns an independent deep copy — the
// sender's MAC is free to recycle its frame buffers the moment its own
// transmission ends, W before the remote decode completes.
type handoff struct {
	txID       uint64
	from       int
	rate       phy.Rate
	start, end sim.Time // on-air interval in the SENDER's frame of reference
	all        bool     // phy.Transmission.All
	payload    []byte
}

// peer is one foreign shard hosting receivers of a local node; listens
// reports whether a station listens on any of them, i.e. whether a
// frame not marked All has anybody to reach there.
type peer struct {
	shard   int32
	listens bool
}

// remoteTx is the receiving-shard state of one cross-shard signal: the
// reconstructed transmission plus the walk list, driven by two firings
// of the shard's event handler (start fan-out, then end fan-out).
type remoteTx struct {
	tx      phy.Transmission
	list    []medium.Delivery
	started bool
}

// Shard is one spatial partition: its own scheduler, its nodes' radios,
// and the delivery sub-lists that stay inside it. It implements
// phy.Channel (radios transmit through it), sim.EventHandler (its
// per-frame events dispatch here) and mac.Network (MACs construct
// against it) — to a MAC or a radio it is indistinguishable from the
// serial medium.
type Shard struct {
	eng   *Engine
	idx   int
	sched *sim.Scheduler
	nodes []int // global ids hosted here, ascending

	// local[i] is node i's same-shard delivery list (nil for foreign
	// nodes); inFrom[i] the receivers HERE of foreign node i; outTo[i]
	// the foreign shards hosting receivers of local node i, ascending.
	local  [][]medium.Delivery
	inFrom [][]medium.Delivery
	outTo  [][]peer

	// attachAt is the instant a station last attached to one of this
	// shard's radios; a frame sent from here in that instant is marked
	// All, as on the serial medium.
	attachAt sim.Time

	// outbox[p][d] holds the handoffs for shard d produced during
	// windows of parity p. Written only by this shard during its own
	// window, read and truncated only by shard d after the barrier —
	// the window protocol keeps the two phases two barriers apart.
	outbox [2][][]handoff

	txFree []*phy.Transmission
	rtFree []*remoteTx

	shardState
}

// shardState is a shard's own mutable state and its part of a
// checkpoint, beside its agenda.
type shardState struct {
	CurWin int64  `json:"cur_win,omitempty"` // window index currently executing (selects parity)
	TxSeq  uint64 `json:"tx_seq,omitempty"`  // local transmission counter; see TxID assignment
	// Transmissions counts frames put on the air by this shard's nodes.
	Transmissions uint64 `json:"transmissions,omitempty"`
}

// Radio returns node id's transceiver. Only nodes hosted by this shard
// may be asked for: a MAC wired against a foreign shard's scheduler
// would break the single-threaded-agenda invariant, so it panics.
func (s *Shard) Radio(id int) *phy.Radio {
	if id < 0 || id >= len(s.eng.assign) || s.eng.assign[id] != s.idx {
		panic(fmt.Sprintf("shard %d: Radio(%d) for a node it does not host", s.idx, id))
	}
	return s.eng.radios[id]
}

// Scheduler returns this shard's event loop.
func (s *Shard) Scheduler() *sim.Scheduler { return s.sched }

// acquireTx borrows a Transmission from the shard-local free list.
func (s *Shard) acquireTx() *phy.Transmission {
	if n := len(s.txFree); n > 0 {
		tx := s.txFree[n-1]
		s.txFree[n-1] = nil
		s.txFree = s.txFree[:n-1]
		return tx
	}
	return new(phy.Transmission)
}

// acquireRT borrows a remoteTx from the shard-local free list.
func (s *Shard) acquireRT() *remoteTx {
	if n := len(s.rtFree); n > 0 {
		rt := s.rtFree[n-1]
		s.rtFree[n-1] = nil
		s.rtFree = s.rtFree[:n-1]
		return rt
	}
	return new(remoteTx)
}

// Attend implements phy.Channel: a station now listens on r. Stations
// attach while the engine is being wired, before the first Run. A frame
// here carries no receiver list of its own, as the serial medium's do:
// both of its fan-outs test the attended set as it stands, and every
// shard goroutine reads it, so an attach on a running engine is a
// wiring bug. Frames sent while wiring
// all start in an attach instant of their own shard and are marked All,
// so Arrive and Depart pair up as on the serial medium.
func (s *Shard) Attend(r *phy.Radio) {
	e, id := s.eng, r.ID()
	if e.attended[id] {
		return
	}
	if e.Clock != 0 {
		panic(fmt.Sprintf("shard %d: station attached to node %d at t=%v, after the engine ran", s.idx, id, e.Clock))
	}
	e.attended[id] = true
	s.attachAt = s.sched.Now()
	// Every foreign sender heard at id now has a listener in this shard.
	for src, list := range s.inFrom {
		if _, ok := slices.BinarySearchFunc(list, id, func(d medium.Delivery, dst int) int { return cmp.Compare(d.Dst, dst) }); !ok {
			continue
		}
		out := e.shards[e.assign[src]].outTo[src]
		for k := range out {
			if out[k].shard == int32(s.idx) {
				out[k].listens = true
			}
		}
	}
}

// hears is the fan-out predicate of all four loops: a frame is
// delivered to the radios a station listens on, or to every radio when
// it is marked All. Neither side changes while a frame is on the air.
func (s *Shard) hears(tx *phy.Transmission, dst int) bool {
	return tx.All || s.eng.attended[dst]
}

// Transmit implements phy.Channel for this shard's radios: fan out to
// same-shard receivers synchronously (the serial engine's exact event
// shape — one signal-end fan-out that also ends the sender's
// transmission), and enqueue one handoff per foreign shard with a
// receiver the frame is delivered to — a shard where nobody listens
// costs neither a handoff nor the frame's marshalling.
//
// TxID = localSeq·S + shardIndex + 1 interleaves the shards' ID spaces:
// unique network-wide without coordination, monotone per shard (radios
// append to their active lists on the fast path), and exactly the
// serial engine's 1,2,3,... at S=1.
func (s *Shard) Transmit(from *phy.Radio, f frame.Frame, r phy.Rate) sim.Time {
	src := from.ID()
	if src < 0 || src >= len(s.eng.radios) || s.eng.radios[src] != from || s.eng.assign[src] != s.idx {
		panic(fmt.Sprintf("shard %d: transmit from radio %d it does not host", s.idx, src))
	}
	s.TxSeq++
	s.Transmissions++
	now := s.sched.Now()
	end := now + phy.Airtime(r, f.WireSize())
	// Written field by field, as on the serial medium; a shard's frames
	// carry no delivery snapshot or heard list.
	tx := s.acquireTx()
	tx.TxID = (s.TxSeq-1)*uint64(len(s.eng.shards)) + uint64(s.idx) + 1
	tx.From, tx.Frame, tx.Rate = src, f, r
	tx.Start, tx.End, tx.All = now, end, now == s.attachAt
	tx.Deliveries, tx.Heard = nil, nil
	for _, d := range s.local[src] {
		if s.hears(tx, d.Dst) {
			s.eng.radios[d.Dst].Arrive(tx, d.GainMW)
		}
	}
	var payload []byte
	p := s.CurWin & 1
	for _, out := range s.outTo[src] {
		if !tx.All && !out.listens {
			continue
		}
		if payload == nil {
			payload = frame.Marshal(f)
		}
		s.outbox[p][out.shard] = append(s.outbox[p][out.shard], handoff{
			txID: tx.TxID, from: src, rate: r, start: now, end: end, all: tx.All, payload: payload,
		})
	}
	s.sched.Post(end, s, tx)
	return end
}

// HandleEvent implements sim.EventHandler. A *phy.Transmission is a
// local signal-end fan-out, which then ends the sender's transmission
// (exactly as in the serial medium: receivers resolve their decodes
// before the sender's MAC reacts), and a *remoteTx a cross-shard signal
// edge.
func (s *Shard) HandleEvent(arg any) {
	switch v := arg.(type) {
	case *phy.Transmission:
		for _, d := range s.local[v.From] {
			if s.hears(v, d.Dst) {
				s.eng.radios[d.Dst].Depart(v, d.GainMW)
			}
		}
		from := s.eng.radios[v.From]
		v.Frame = nil // do not retain the MAC's frame past the air interval
		s.txFree = append(s.txFree, v)
		from.TxDone()
	case *remoteTx:
		s.handleRemote(v)
	default:
		panic(fmt.Sprintf("shard %d: unexpected event arg %T", s.idx, arg))
	}
}

// handleRemote drives a cross-shard signal through its two edges. The
// first firing (at the shifted start) walks Arrive over the
// receivers here and schedules the second (at the shifted end), which
// walks Depart and recycles. Walk order is ascending receiver order,
// matching the local fan-out discipline.
func (s *Shard) handleRemote(rt *remoteTx) {
	if !rt.started {
		rt.started = true
		for _, d := range rt.list {
			if s.hears(&rt.tx, d.Dst) {
				s.eng.radios[d.Dst].Arrive(&rt.tx, d.GainMW)
			}
		}
		s.sched.Post(rt.tx.End, s, rt)
		return
	}
	for _, d := range rt.list {
		if s.hears(&rt.tx, d.Dst) {
			s.eng.radios[d.Dst].Depart(&rt.tx, d.GainMW)
		}
	}
	rt.tx.Frame = nil
	rt.list = nil
	s.rtFree = append(s.rtFree, rt)
}

// drain imports every peer's parity-(k mod 2) outbox for this shard:
// unmarshal each handoff and post its start edge at t+W. Peers are
// visited in ascending shard order and handoffs in append order, so the
// resulting event sequence is a pure function of the shards' (already
// deterministic) window-k executions. Arrival times never precede this
// shard's clock: t > (k-1)·W implies t+W > k·W, which is exactly where
// the clock stands after running to the window edge.
func (s *Shard) drain(k int64) {
	p := k & 1
	for _, src := range s.eng.shards {
		if src == s {
			continue
		}
		box := src.outbox[p][s.idx]
		for i := range box {
			h := &box[i]
			f, err := frame.Unmarshal(h.payload)
			if err != nil {
				panic(fmt.Sprintf("shard %d: corrupt handoff from shard %d: %v", s.idx, src.idx, err))
			}
			rt := s.acquireRT()
			// Shift the interval into the receiver's frame of reference:
			// same duration, so airtime and SINR integration are exact.
			rt.tx = phy.Transmission{
				TxID: h.txID, From: h.from, Frame: f, Rate: h.rate,
				Start: h.start + window, End: h.end + window, All: h.all,
			}
			rt.list = s.inFrom[h.from]
			rt.started = false
			s.sched.Post(rt.tx.Start, s, rt)
			box[i] = handoff{} // release the payload reference
		}
		src.outbox[p][s.idx] = box[:0]
	}
}
