package sim

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Checkpoint surface of the scheduler, its timers and the RNG. An RNG
// and a Timer handle encode themselves, so a state struct holding them
// needs no code of its own; the agenda exports through owner callbacks,
// since the scheduler cannot name arbitrary handler types.

// ErrSeq is the typed failure of a checkpointed agenda or timer whose
// sequence numbers no run could have written — an event seq listed
// twice, or an event or timer seq at or beyond next_seq, which the
// scheduler has not issued yet. A checkpoint is user input: its digest
// proves only that the file was not damaged in transit.
var ErrSeq = errors.New("sim: bad event sequence number")

// MarshalJSON writes the RNG as its state word.
func (r RNG) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, r.state, 10), nil }

// UnmarshalJSON restores a state word written by MarshalJSON; the
// stream continues exactly where the captured one stood.
func (r *RNG) UnmarshalJSON(b []byte) (err error) {
	r.state, err = strconv.ParseUint(string(b), 10, 64)
	return err
}

// MarshalJSON writes a handle that was ever armed as its event's seq and
// any other as null. Whether it is still pending is not stored: the
// restored agenda, which holds the seq or not, says so.
func (t Timer) MarshalJSON() ([]byte, error) {
	if t.s == nil {
		return []byte("null"), nil
	}
	return strconv.AppendUint(nil, t.seq, 10), nil
}

// UnmarshalJSON implements json.Unmarshaler. A handle that was armed
// decodes detached — no scheduler, no slab index — so until
// Scheduler.Attach it is inactive and exports as unset, which is how a
// forgotten Attach shows up in a round-trip test.
func (t *Timer) UnmarshalJSON(b []byte) error {
	*t = Timer{}
	if string(b) == "null" {
		return nil
	}
	seq, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("sim: timer %s is not an event seq: %w", b, err)
	}
	*t = Timer{ev: -1, seq: seq}
	return nil
}

// Attach points timers decoded from a checkpoint at s. It must run right
// after s.RestoreState, whose seq→slab lookup it resolves them through:
// a timer whose event is on the restored agenda is active again, and
// Stop cancels that event; one whose event already fired or was stopped
// is inactive. A timer naming a seq s has not issued is refused with
// ErrSeq. Timers that were never armed stay zero.
func (s *Scheduler) Attach(timers ...*Timer) error {
	for _, t := range timers {
		if t.s != nil || t.ev >= 0 {
			continue
		}
		if t.seq >= s.nextSeq {
			return fmt.Errorf("%w: timer names seq %d, next to issue is %d", ErrSeq, t.seq, s.nextSeq)
		}
		ev, ok := s.restored[t.seq]
		if !ok {
			ev = -1
		}
		t.s, t.ev = s, ev
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
	Owner string          `json:"owner"`
	Arg   json.RawMessage `json:"arg,omitempty"`
}

// SchedulerState is a complete, self-contained snapshot of a
// Scheduler: the clock, the agenda (in deterministic (at, seq) order)
// and the event/seq counters. Restoring it reproduces the exact pop
// order, and the seqs outstanding Timers name.
type SchedulerState struct {
	Now     Time          `json:"now"`
	NextSeq uint64        `json:"next_seq"`
	Fired   uint64        `json:"fired"`
	Events  []EventRecord `json:"events"`
}

// EncodeFunc maps one live agenda event to its checkpoint form. It
// must return a stable owner key and an encoding of arg the matching
// DecodeFunc can invert. Returning an error aborts the export — an
// unencodable event is a checkpointing bug in the component that
// scheduled it.
type EncodeFunc func(target EventHandler, arg any) (owner string, encoded json.RawMessage, err error)

// DecodeFunc maps one checkpointed event back to a live handler and
// argument in the reconstructed simulation.
type DecodeFunc func(owner string, encoded json.RawMessage) (EventHandler, any, error)

// ExportState captures the scheduler's complete state. Events are
// emitted in (at, seq) pop order, which is deterministic regardless of
// how the agenda is laid out.
func (s *Scheduler) ExportState(encode EncodeFunc) (SchedulerState, error) {
	st := SchedulerState{
		Now:     s.now,
		NextSeq: s.nextSeq,
		Fired:   s.fired,
		Events:  make([]EventRecord, 0, s.Pending()),
	}
	for i := range s.events {
		ev := &s.events[i]
		if ev.pos == posFree {
			continue
		}
		owner, arg, err := encode(ev.target, ev.arg)
		if err != nil {
			return SchedulerState{}, fmt.Errorf("sim: encoding event at %v (seq %d): %w", ev.at, ev.seq, err)
		}
		st.Events = append(st.Events, EventRecord{At: ev.at, Seq: ev.seq, Owner: owner, Arg: arg})
	}
	slices.SortFunc(st.Events, func(a, b EventRecord) int { return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq)) })
	return st, nil
}

// RestoreState replaces the scheduler's entire state with st. Whatever
// the skeleton construction scheduled beforehand is discarded: after
// RestoreState the agenda, clock and counters are exactly those captured
// by ExportState. Component Timers are pointed at the restored events
// separately, through Attach. Every event seq must be below next_seq and
// listed once.
func (s *Scheduler) RestoreState(st SchedulerState, decode DecodeFunc) error {
	events := make([]event, 0, len(st.Events))
	restored := make(map[uint64]int32, len(st.Events))
	for _, rec := range st.Events {
		target, arg, err := decode(rec.Owner, rec.Arg)
		if err != nil {
			return fmt.Errorf("sim: decoding event at %v (seq %d, owner %q): %w", rec.At, rec.Seq, rec.Owner, err)
		}
		if rec.At < st.Now {
			return fmt.Errorf("sim: event seq %d at %v is before the checkpointed clock %v", rec.Seq, rec.At, st.Now)
		}
		if rec.Seq >= st.NextSeq {
			return fmt.Errorf("%w: event seq %d at %v, next to issue is %d", ErrSeq, rec.Seq, rec.At, st.NextSeq)
		}
		if _, twice := restored[rec.Seq]; twice {
			return fmt.Errorf("%w: event seq %d listed twice", ErrSeq, rec.Seq)
		}
		restored[rec.Seq] = -1
		events = append(events, event{at: rec.At, seq: rec.Seq, target: target, arg: arg})
	}
	// The window starts at the clock, not at the last fired event: pop
	// order does not depend on where the window sits, only on every
	// event being filed against the same one.
	*s = Scheduler{
		now:      st.Now,
		base:     tickOf(st.Now),
		events:   make([]event, 0, len(events)),
		restored: restored,
		nextSeq:  st.NextSeq,
		fired:    st.Fired,
	}
	for _, ev := range events {
		restored[ev.seq] = s.add(ev.at, ev.seq, ev.target, ev.arg)
	}
	return nil
}
