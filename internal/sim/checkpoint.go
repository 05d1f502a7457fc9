package sim

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Checkpoint surface of the scheduler, its timers and the RNG. An RNG
// and a Timer handle encode themselves, so a state struct holding them
// needs no code of its own; the agenda exports through owner callbacks,
// since the scheduler cannot name arbitrary handler types.

// The typed failures of a checkpointed slot table, which is user input
// (a digest proves only that the file was not damaged in transit): a
// free slot, event or timer naming a slot the table does not have, a
// slot listed free twice or held by two events, and a slot listed free
// while an event holds it.
var (
	ErrSlotRange = errors.New("sim: slot out of range")
	ErrSlotTwice = errors.New("sim: slot listed twice")
	ErrSlotLive  = errors.New("sim: free slot held by a live event")
)

// MarshalJSON writes the RNG as its state word.
func (r RNG) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, r.state, 10), nil }

// UnmarshalJSON restores a state word written by MarshalJSON; the
// stream continues exactly where the captured one stood.
func (r *RNG) UnmarshalJSON(b []byte) (err error) {
	r.state, err = strconv.ParseUint(string(b), 10, 64)
	return err
}

// MarshalJSON writes a handle attached to a scheduler as [slot, gen, at]
// and any other as null. Whether it is still pending is not stored: the
// scheduler's slot table, restored exactly, says so.
func (t Timer) MarshalJSON() ([]byte, error) {
	if t.s == nil {
		return []byte("null"), nil
	}
	return fmt.Appendf(nil, "[%d,%d,%d]", t.slot, t.gen, t.at), nil
}

// UnmarshalJSON implements json.Unmarshaler. A handle that was set
// decodes detached — no scheduler, its slot complemented — so until
// Scheduler.Attach it is inactive and exports as unset, which is how a
// forgotten Attach shows up in a round-trip test.
func (t *Timer) UnmarshalJSON(b []byte) error {
	var a *[3]int64
	if err := json.Unmarshal(b, &a); err != nil {
		return fmt.Errorf("sim: timer %s is not [slot,gen,at]: %w", b, err)
	}
	*t = Timer{}
	if a != nil {
		if a[0] < 0 || a[0] > math.MaxInt32 || a[1] < 0 || a[1] > math.MaxUint32 {
			return fmt.Errorf("%w: timer %s", ErrSlotRange, b)
		}
		*t = Timer{slot: ^int32(a[0]), gen: uint32(a[1]), at: Time(a[2])}
	}
	return nil
}

// Attach points timers decoded from a checkpoint at s. It must run after
// s.RestoreState so the slot generations line up; Active and Stop then
// behave exactly as they did at capture time. Timers that were not set
// stay zero, and one naming a slot beyond s's table is refused.
func (s *Scheduler) Attach(timers ...*Timer) error {
	for _, t := range timers {
		if t.s != nil || t.slot >= 0 {
			continue
		}
		if slot := ^t.slot; int(slot) >= len(s.slots) {
			return fmt.Errorf("%w: timer names slot %d of %d", ErrSlotRange, slot, len(s.slots))
		}
		t.s = s
		t.slot = ^t.slot
	}
	return nil
}

// EventRecord is one agenda event in checkpoint form. Target and Arg
// are encoded by the owning component (the scheduler cannot name
// arbitrary handler types): Owner is a stable key the resumer maps
// back to a live EventHandler, Arg the owner's own encoding of the
// event argument.
type EventRecord struct {
	At    Time            `json:"at"`
	Seq   uint64          `json:"seq"`
	Slot  int32           `json:"slot"`
	Owner string          `json:"owner"`
	Arg   json.RawMessage `json:"arg,omitempty"`
}

// SchedulerState is a complete, self-contained snapshot of a
// Scheduler: the clock, the agenda (in deterministic (at, seq) order),
// the cancellation-slot table and its free list, and the event/seq
// counters. Restoring it reproduces the exact pop order and the exact
// slot generations outstanding Timers were issued with.
type SchedulerState struct {
	Now       Time          `json:"now"`
	NextSeq   uint64        `json:"next_seq"`
	Fired     uint64        `json:"fired"`
	SlotGens  []uint32      `json:"slot_gens"`
	FreeSlots []int32       `json:"free_slots"`
	Events    []EventRecord `json:"events"`
}

// EncodeFunc maps one live agenda event to its checkpoint form. It
// must return a stable owner key and an encoding of arg the matching
// DecodeFunc can invert. Returning an error aborts the export — an
// unencodable event (e.g. a raw closure) is a checkpointing bug in the
// component that scheduled it.
type EncodeFunc func(target EventHandler, arg any) (owner string, encoded json.RawMessage, err error)

// DecodeFunc maps one checkpointed event back to a live handler and
// argument in the reconstructed simulation.
type DecodeFunc func(owner string, encoded json.RawMessage) (EventHandler, any, error)

// ExportState captures the scheduler's complete state. Events are
// emitted in (at, seq) pop order, which is deterministic regardless of
// how the agenda is laid out. Closure events (At/After) cannot be encoded; components
// that checkpoint must schedule through Post/PostAfter/ResetAt with
// typed arguments instead.
func (s *Scheduler) ExportState(encode EncodeFunc) (SchedulerState, error) {
	st := SchedulerState{
		Now:       s.now,
		NextSeq:   s.nextSeq,
		Fired:     s.fired,
		SlotGens:  make([]uint32, len(s.slots)),
		FreeSlots: append([]int32(nil), s.freeSlots...),
		Events:    make([]EventRecord, 0, s.Pending()),
	}
	for i, sl := range s.slots {
		st.SlotGens[i] = sl.gen
	}
	for i := range s.events {
		ev := &s.events[i]
		if ev.pos == posFree {
			continue
		}
		if _, isClosure := ev.target.(funcRunner); isClosure {
			return SchedulerState{}, fmt.Errorf("sim: agenda holds a closure event at %v (seq %d); closure events are not checkpointable", ev.at, ev.seq)
		}
		owner, arg, err := encode(ev.target, ev.arg)
		if err != nil {
			return SchedulerState{}, fmt.Errorf("sim: encoding event at %v (seq %d): %w", ev.at, ev.seq, err)
		}
		st.Events = append(st.Events, EventRecord{At: ev.at, Seq: ev.seq, Slot: ev.slot, Owner: owner, Arg: arg})
	}
	slices.SortFunc(st.Events, func(a, b EventRecord) int { return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq)) })
	return st, nil
}

// RestoreState replaces the scheduler's entire state with st. Whatever
// the skeleton construction scheduled beforehand is discarded: after
// RestoreState the agenda, clock, slot table and counters are exactly
// those captured by ExportState. Component Timers are pointed at the
// restored table separately, through Attach. Every slot must be held by
// at most one event or listed free exactly once, and never both.
func (s *Scheduler) RestoreState(st SchedulerState, decode DecodeFunc) error {
	const held, free = 1, 2
	use := make([]byte, len(st.SlotGens))
	events := make([]event, 0, len(st.Events))
	for _, rec := range st.Events {
		target, arg, err := decode(rec.Owner, rec.Arg)
		if err != nil {
			return fmt.Errorf("sim: decoding event at %v (seq %d, owner %q): %w", rec.At, rec.Seq, rec.Owner, err)
		}
		switch {
		case rec.At < st.Now:
			return fmt.Errorf("sim: event seq %d at %v is before the checkpointed clock %v", rec.Seq, rec.At, st.Now)
		case rec.Slot < -1 || int(rec.Slot) >= len(use):
			return fmt.Errorf("%w: event seq %d holds slot %d of %d", ErrSlotRange, rec.Seq, rec.Slot, len(use))
		case rec.Slot >= 0 && use[rec.Slot] != 0:
			return fmt.Errorf("%w: slot %d held by a second event (seq %d)", ErrSlotTwice, rec.Slot, rec.Seq)
		case rec.Slot >= 0:
			use[rec.Slot] = held
		}
		events = append(events, event{at: rec.At, seq: rec.Seq, target: target, arg: arg, slot: rec.Slot})
	}
	for _, f := range st.FreeSlots {
		switch {
		case f < 0 || int(f) >= len(use):
			return fmt.Errorf("%w: free slot %d of %d", ErrSlotRange, f, len(use))
		case use[f] == free:
			return fmt.Errorf("%w: slot %d listed free twice", ErrSlotTwice, f)
		case use[f] == held:
			return fmt.Errorf("%w: slot %d", ErrSlotLive, f)
		}
		use[f] = free
	}
	slots := make([]slotEntry, len(st.SlotGens))
	for i, gen := range st.SlotGens {
		slots[i] = slotEntry{ev: -1, gen: gen}
	}
	// The window starts at the clock, not at the last fired event: pop
	// order does not depend on where the window sits, only on every
	// event being filed against the same one.
	*s = Scheduler{
		now:       st.Now,
		base:      tickOf(st.Now),
		events:    make([]event, 0, len(events)),
		slots:     slots,
		freeSlots: append([]int32(nil), st.FreeSlots...),
		nextSeq:   st.NextSeq,
		fired:     st.Fired,
	}
	for _, ev := range events {
		i := s.add(ev)
		if ev.slot >= 0 {
			s.slots[ev.slot].ev = i
		}
	}
	return nil
}
