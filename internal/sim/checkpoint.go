package sim

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the checkpoint surface of the scheduler and RNG: enough
// accessors to capture every piece of hidden state bit-exactly and put
// it back. The scheduler itself stays format-agnostic — owners encode
// their own event arguments through the codec callbacks, and
// internal/checkpoint owns the envelope.

// State returns the RNG's internal state word.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the RNG's internal state word. Restoring the
// state captured by State reproduces the exact continuation of the
// stream.
func (r *RNG) SetState(s uint64) { r.state = s }

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
	sort.Slice(st.Events, func(i, j int) bool {
		a, b := &st.Events[i], &st.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Seq < b.Seq
	})
	return st, nil
}

// RestoreState replaces the scheduler's entire state with st. Whatever
// the skeleton construction scheduled beforehand is discarded: after
// RestoreState the agenda, clock, slot table and counters are exactly
// those captured by ExportState. Component Timers must be re-pointed
// separately via RestoreTimer, against the slot generations restored
// here.
func (s *Scheduler) RestoreState(st SchedulerState, decode DecodeFunc) error {
	events := make([]event, 0, len(st.Events))
	for _, rec := range st.Events {
		target, arg, err := decode(rec.Owner, rec.Arg)
		if err != nil {
			return fmt.Errorf("sim: decoding event at %v (seq %d, owner %q): %w", rec.At, rec.Seq, rec.Owner, err)
		}
		if rec.Slot >= 0 && int(rec.Slot) >= len(st.SlotGens) {
			return fmt.Errorf("sim: event seq %d references slot %d beyond table size %d", rec.Seq, rec.Slot, len(st.SlotGens))
		}
		if rec.At < st.Now {
			return fmt.Errorf("sim: event seq %d at %v is before the checkpointed clock %v", rec.Seq, rec.At, st.Now)
		}
		events = append(events, event{at: rec.At, seq: rec.Seq, target: target, arg: arg, slot: rec.Slot})
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

// TimerState is a Timer handle in checkpoint form. Set distinguishes a
// timer that has been armed at least once (its slot/gen are meaningful
// against the owning scheduler's slot table) from a zero-valued one.
type TimerState struct {
	Set  bool   `json:"set,omitempty"`
	Slot int32  `json:"slot,omitempty"`
	Gen  uint32 `json:"gen,omitempty"`
	At   Time   `json:"at,omitempty"`
}

// State captures the timer handle for a checkpoint. Whether the timer
// is pending is not stored: Active is derived from the scheduler's
// slot table, which the checkpoint restores exactly.
func (t *Timer) State() TimerState {
	if t == nil || t.s == nil {
		return TimerState{}
	}
	return TimerState{Set: true, Slot: t.slot, Gen: t.gen, At: t.at}
}

// RestoreTimer re-points a component-owned timer at this scheduler
// from its checkpointed state. It must run after RestoreState so the
// slot generations line up; Active and Stop then behave exactly as
// they did at capture time.
func (s *Scheduler) RestoreTimer(tm *Timer, st TimerState) {
	if !st.Set {
		*tm = Timer{}
		return
	}
	*tm = Timer{s: s, slot: st.Slot, gen: st.Gen, at: st.At}
}
