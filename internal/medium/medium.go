package medium

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Medium is the air. It owns one radio per node and dispatches each
// transmission to the radios that can hear it and that a station
// listens on.
type Medium struct {
	sched  *sim.Scheduler
	params phy.Params
	model  radio.Model

	positions []geo.Point
	radios    []phy.Radio

	// deliveries[a] lists, in ascending receiver order, every node that
	// hears a above the delivery floor and the power it receives. The
	// ascending order is load-bearing: Transmit touches receivers in
	// list order, so list order is part of the deterministic event
	// sequence that golden traces pin down. Rows may be shared with
	// other media (NewFromRows) and are never written through. Every
	// row of a New medium, and every row after a MoveNodes batch, is
	// stale until its next full read builds it, or holds only its
	// attended receivers after a frame (heardRow), so every full reader
	// goes through row (incremental.go).
	deliveries [][]Delivery
	floor      floor
	screen     screen
	gridBacked bool

	// attended[i] reports whether a station listens on radio i; a
	// radio's first attach sets it for good. attachAt is the instant of
	// the latest attach; a frame that starts in that instant is marked
	// All (see Transmit).
	attended []bool
	attachAt sim.Time

	// heard[s] is what a frame from s carries as Transmission.Heard: the
	// positions in deliveries[s] of the attended receivers, or nil when
	// deliveries[s] holds only those, current while heardVer[s] == ver.
	// An attach, a non-empty MoveNodes batch and a RebuildDeliveries
	// bump ver, and each sender's next frame derives its row again
	// (heardRow). Rows are appended to arena and never written after —
	// frames on the air hold them — so a new version appends past the
	// old rows, never over them.
	heard    [][]int32
	heardVer []uint64
	ver      uint64
	arena    []int32

	// txFree recycles Transmission objects: a transmission returns to
	// the list when its end fan-out completes, so steady-state traffic
	// reuses a small ring of them instead of allocating one per frame.
	// Attend puts one on it per station: only a station's radio
	// transmits, one frame at a time, so a run never needs more.
	txFree []*phy.Transmission

	State

	// mv holds the lazy-row state (spatial grid, row versions, scratch
	// row, attended-part arena): New builds it with every row stale; a
	// medium built over finished rows (NewFromRows, NewDense,
	// RebuildDeliveries) gets it on its first MoveNodes.
	mv *mover
}

// New builds a medium over the given node positions. Each node gets a
// radio whose decode randomness comes from a stream of rng. It builds
// no delivery row: every row starts stale and is built on its first
// read, through a spatial grid (every pair a candidate when the model
// does not bound its range), as a row is after a move (incremental.go)
// — the row BuildDeliveries would build, bit for bit. A frame builds
// only its sender's attended part, so a run pays for the rows it reads.
//
// A read writes rows, so a New medium serves one goroutine, as a moving
// medium does. Media that run concurrently over one layout share rows
// built once through topo.Testbed.Shared (NewFromRows) instead.
func New(sched *sim.Scheduler, params phy.Params, model radio.Model, positions []geo.Point, rng *sim.RNG) *Medium {
	m := newMedium(sched, params, model, positions, rng)
	m.deliveries = make([][]Delivery, len(positions))
	_, m.gridBacked = reach(params, model)
	m.ensureMover().ver++ // one past every row's version: all stale
	return m
}

// NewFromRows builds a medium over delivery rows already built for the
// same params, model and positions — BuildDeliveries' output and the
// grid flag it returned — so it is the medium New would build, without
// the build. Any number of media, on any goroutines, may share one row
// set: each takes its own copy of the outer slice only, and nothing
// writes into a row (a row rebuilt after a move is a fresh slice), so
// no run changes what another reads. topo.Testbed.Shared is the caller.
func NewFromRows(sched *sim.Scheduler, params phy.Params, model radio.Model, positions []geo.Point, rng *sim.RNG, rows [][]Delivery, gridBacked bool) *Medium {
	m := newMedium(sched, params, model, positions, rng)
	m.deliveries, m.gridBacked = slices.Clone(rows), gridBacked
	return m
}

// NewDense builds an identical medium through the reference O(n²)
// construction that considers every ordered pair. It exists so tests can
// prove the grid-pruned construction loses nothing; simulations behave
// bit-identically on either.
func NewDense(sched *sim.Scheduler, params phy.Params, model radio.Model, positions []geo.Point, rng *sim.RNG) *Medium {
	m := newMedium(sched, params, model, positions, rng)
	m.deliveries = denseDeliveries(params, model, positions)
	return m
}

func newMedium(sched *sim.Scheduler, params phy.Params, model radio.Model, positions []geo.Point, rng *sim.RNG) *Medium {
	m := &Medium{
		sched:     sched,
		params:    params,
		model:     model,
		positions: append([]geo.Point(nil), positions...),
		floor:     newFloor(params),
		attachAt:  -1,
		ver:       1,
	}
	m.screen = newScreen(m.floor, model)
	n := len(positions)
	m.radios = make([]phy.Radio, n)
	m.attended = make([]bool, n)
	m.heard = make([][]int32, n)
	m.heardVer = make([]uint64, n)
	phy.InitRadios(m.radios, params, rng, sched, m)
	return m
}

// Attend implements phy.Channel: a station now listens on r, so every
// frame that starts from here on reaches it.
func (m *Medium) Attend(r *phy.Radio) {
	id := r.ID()
	if m.attended[id] {
		return // already listening
	}
	m.attended[id] = true
	m.attachAt = m.sched.Now()
	m.txFree = append(m.txFree, new(phy.Transmission))
	m.staleHeard()
}

// staleHeard retires every sender's heard row: its next frame derives
// the row again. The retired rows stay valid for the frames on the air
// that carry them.
func (m *Medium) staleHeard() {
	m.ver++
	m.arena = m.arena[len(m.arena):]
}

// heardRow returns the positions in src's delivery row of the receivers
// a station listens on, deriving them on src's first frame since the
// heard rows went stale. A sender's first frame and every batch force
// that miss path, so the staleness check of the delivery row lives on
// it, and a frame whose heard row is current never makes it.
//
// When src's delivery row is stale — never built since New, or moved
// by a batch since — the miss path builds only its attended part, over
// the current positions, into deliveries[src] and returns nil: every
// entry of that row is heard. rowVer[src] stays stale, so the next full
// read (row) builds the whole row, and retires this heard row as it
// does. Otherwise it returns indexes into the current delivery row, nil
// only when that row is empty, where "every entry" and "none" agree.
func (m *Medium) heardRow(src int) []int32 {
	if m.heardVer[src] == m.ver {
		return m.heard[src]
	}
	m.heardVer[src] = m.ver
	if mv := m.mv; mv != nil && mv.rowVer[src] != mv.ver {
		m.deliveries[src], m.heard[src] = m.buildRow(mv, src, m.attended), nil
		return nil
	}
	list := m.deliveries[src] // current: the stale case returned above
	if cap(m.arena)-len(m.arena) < len(list) {
		m.arena = make([]int32, 0, max(4*len(list), 256))
	}
	lo := len(m.arena)
	for k, d := range list {
		if m.attended[d.Dst] {
			m.arena = append(m.arena, int32(k))
		}
	}
	// Capped at its end, so nothing appended later can reach into it.
	row := m.arena[lo:len(m.arena):len(m.arena)]
	m.heard[src] = row
	return row
}

// gain returns the received power in mW at b when a transmits.
func (m *Medium) gain(a, b int) float64 {
	loss := m.model.Loss(a, m.positions[a], b, m.positions[b])
	return radio.DBmToMW(m.params.TxPowerDBm - loss)
}

// NodeCount returns the number of nodes on the medium.
func (m *Medium) NodeCount() int { return len(m.radios) }

// Radio returns node i's transceiver.
func (m *Medium) Radio(i int) *phy.Radio { return &m.radios[i] }

// Position returns node i's location.
func (m *Medium) Position(i int) geo.Point { return m.positions[i] }

// Scheduler returns the virtual clock driving this medium.
func (m *Medium) Scheduler() *sim.Scheduler { return m.sched }

// GridBacked reports whether the model bounds its range, so that the
// spatial grid prunes candidates (without one every pair is a candidate).
func (m *Medium) GridBacked() bool { return m.gridBacked }

// NeighborCount returns how many receivers hear node i above the
// delivery floor.
func (m *Medium) NeighborCount(i int) int { return len(m.row(i)) }

// ForEachNeighbor calls fn for every receiver that hears node i above
// the delivery floor, in ascending receiver order, with the power it
// receives in mW.
func (m *Medium) ForEachNeighbor(i int, fn func(dst int, gainMW float64)) {
	for _, d := range m.row(i) {
		fn(d.Dst, d.GainMW)
	}
}

// byDst orders a delivery against a receiver index, for binary searches
// over the ascending lists.
func byDst(d Delivery, dst int) int { return cmp.Compare(d.Dst, dst) }

// lookupGain finds the stored delivery gain from→to, if to is audible.
func (m *Medium) lookupGain(from, to int) (float64, bool) {
	list := m.row(from)
	k, ok := slices.BinarySearchFunc(list, to, byDst)
	if ok {
		return list[k].GainMW, true
	}
	return 0, false
}

// GainMW returns the stored delivery-list gain from→to in mW and whether
// the link clears the delivery floor. It is the read-only view of the
// exact numbers Transmit fans out with, so consumers that reason about
// the medium (the analytic conflict-graph extractor) share one ground
// truth with the simulator instead of re-deriving gains from the model.
func (m *Medium) GainMW(from, to int) (float64, bool) {
	if from == to {
		return 0, false
	}
	return m.lookupGain(from, to)
}

// RxPowerDBm returns the power at which node "to" hears node "from", in
// dBm. Links below the delivery floor are recomputed from the model, so
// the answer matches the dense gain matrix exactly even for pairs the
// sparse lists do not store. Returns -inf for from == to.
func (m *Medium) RxPowerDBm(from, to int) float64 {
	if from == to {
		return radio.MWToDBm(0)
	}
	if g, ok := m.lookupGain(from, to); ok {
		return radio.MWToDBm(g)
	}
	return radio.MWToDBm(m.gain(from, to))
}

// IsolationPRR returns the analytic packet reception ratio of the link
// from→to for a frame of wireBytes at rate r with no interference — the
// §5.1 "transmitting in isolation" measurement.
func (m *Medium) IsolationPRR(from, to int, r phy.Rate, wireBytes int) float64 {
	if from == to {
		return 0
	}
	return phy.IsolationPRR(r, m.RxPowerDBm(from, to), wireBytes)
}

// acquireTx borrows a Transmission from the free list, allocating only
// for a radio that no station attached to.
func (m *Medium) acquireTx() *phy.Transmission {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return tx
	}
	return new(phy.Transmission)
}

// HandleEvent implements sim.EventHandler: the medium's one per-frame
// event arrives here, a *phy.Transmission whose signal has ended.
func (m *Medium) HandleEvent(arg any) {
	tx, ok := arg.(*phy.Transmission)
	if !ok {
		panic(fmt.Sprintf("medium: unexpected event arg %T", arg))
	}
	m.finishTransmission(tx)
}

// finishTransmission delivers Depart to every receiver Transmit
// delivered Arrive to — the entries tx.Heard names, in the same
// ascending order and with the same power — recycles tx, and then ends
// the sender's transmission: receivers resolve their decodes before the
// sender's MAC reacts. The walk is over the transmit-time snapshot, not
// the live list: a row rebuilt after a move is a fresh slice, so the
// snapshot keeps Arrive and Depart pinned to one receiver set — and one
// power per receiver, which is what keeps a signal on the same side of
// the radio's sensitivity test both times — even while nodes move
// mid-frame.
func (m *Medium) finishTransmission(tx *phy.Transmission) {
	if tx.Heard == nil {
		for _, d := range tx.Deliveries {
			m.radios[d.Dst].Depart(tx, d.GainMW)
		}
	} else {
		for _, k := range tx.Heard {
			d := tx.Deliveries[k]
			m.radios[d.Dst].Depart(tx, d.GainMW)
		}
	}
	from := &m.radios[tx.From]
	tx.Frame = nil      // do not retain the MAC's frame past the air interval
	tx.Deliveries = nil // nor the delivery snapshot
	tx.Heard = nil
	m.txFree = append(m.txFree, tx)
	from.TxDone()
}

// Transmit implements phy.Channel. It fans the frame out to the radios
// on the sender's delivery list that a station listens on — the frame
// carries their positions on the list (Transmission.Heard), or nil
// when the list heardRow returned holds only them, so its end fan-out
// walks the same ones — and posts one event, the signal-end
// fan-out, which also ends the sender's transmission: one agenda event
// per transmission, regardless of receiver count, and zero allocations
// in steady state.
//
// A frame that starts in an instant in which a station has attached goes
// to every radio on the list. CMAP's SetSaturated transmits at t=0
// while the run is still being wired, before later flows' stations
// exist; those stations must find that frame on the air when they
// attach, and which radios will attach later in the instant cannot be
// known here. So a station hears every frame that starts after it
// attaches, and every frame of its attach instant that followed an
// attach — while a run is wired that is all of them, the sender being a
// station that attached in that instant itself.
func (m *Medium) Transmit(from *phy.Radio, f frame.Frame, r phy.Rate) sim.Time {
	src := from.ID()
	if src < 0 || src >= len(m.radios) || &m.radios[src] != from {
		panic(fmt.Sprintf("medium: transmit from unknown radio %d", src))
	}
	m.NextTxID++
	m.Transmissions++
	now := m.sched.Now()
	end := now + phy.Airtime(r, f.WireSize())
	// A recycled tx is written field by field, every field on every
	// frame: a composite literal would be built aside and block-copied.
	tx := m.acquireTx()
	tx.TxID, tx.From, tx.Frame, tx.Rate = m.NextTxID, src, f, r
	tx.Start, tx.End = now, end
	// Snapshot the delivery list (a slice header copy, no allocation):
	// the end fan-out must reach exactly this set even if a move
	// replaces the live row mid-frame. heardRow builds the attended part
	// of a stale row on its miss path, which every move forces.
	if now == m.attachAt {
		tx.Deliveries, tx.Heard = m.row(src), nil
	} else {
		tx.Heard = m.heardRow(src)
		tx.Deliveries = m.deliveries[src]
	}
	if tx.Heard == nil {
		for _, d := range tx.Deliveries {
			m.radios[d.Dst].Arrive(tx, d.GainMW)
		}
	} else {
		for _, k := range tx.Heard {
			d := tx.Deliveries[k]
			m.radios[d.Dst].Arrive(tx, d.GainMW)
		}
	}
	m.sched.Post(end, m, tx)
	return end
}
