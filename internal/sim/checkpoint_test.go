package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// The scheduler checkpoint round-trip: export mid-run, restore into a
// fresh scheduler whose skeleton posted different events, and the
// restored agenda must pop in exactly the captured order with the same
// sequence numbers, and outstanding timers must keep working against
// the restored agenda.

// recHandler records every event it handles, tagged with the clock.
type recHandler struct {
	name string
	log  *[]string
	s    *Scheduler
}

func (h *recHandler) HandleEvent(arg any) {
	*h.log = append(*h.log, fmt.Sprintf("%s:%v@%d", h.name, arg, h.s.Now()))
}

// codec encodes the test handlers: owner is the handler name, the
// argument is an int.
func codec(byName map[string]*recHandler) (EncodeFunc, DecodeFunc) {
	enc := func(target EventHandler, arg any) (string, json.RawMessage, error) {
		h, ok := target.(*recHandler)
		if !ok {
			return "", nil, fmt.Errorf("unknown handler %T", target)
		}
		raw, err := json.Marshal(arg.(int))
		return h.name, raw, err
	}
	dec := func(owner string, encoded json.RawMessage) (EventHandler, any, error) {
		h, ok := byName[owner]
		if !ok {
			return nil, nil, fmt.Errorf("unknown owner %q", owner)
		}
		var v int
		if err := json.Unmarshal(encoded, &v); err != nil {
			return nil, nil, err
		}
		return h, v, nil
	}
	return enc, dec
}

func newRec(s *Scheduler, log *[]string, names ...string) map[string]*recHandler {
	byName := map[string]*recHandler{}
	for _, n := range names {
		byName[n] = &recHandler{name: n, log: log, s: s}
	}
	return byName
}

func TestSchedulerExportRestoreRoundTrip(t *testing.T) {
	var logA []string
	a := NewScheduler()
	ha := newRec(a, &logA, "x", "y")
	encA, _ := codec(ha)

	// Interleave plain posts and timer-backed events, run partway so the
	// clock, fired counter and seq counters are all non-trivial.
	for i := 0; i < 8; i++ {
		a.Post(Time(10*(i+1)), ha["x"], i)
	}
	var tm, stopped Timer
	a.ResetAt(&tm, Time(95), ha["y"], 100)
	a.ResetAt(&tm, Time(55), ha["y"], 101) // re-armed while active: 95 stays on the agenda, orphaned
	a.ResetAt(&stopped, Time(42), ha["y"], 200)
	stopped.Stop() // frees a slab entry the restored agenda does not have
	a.Run(Time(30))

	st, err := a.ExportState(encA)
	if err != nil {
		t.Fatal(err)
	}
	tmJSON := marshalTimer(t, &tm)
	preLen := len(logA) // events A already fired before the cut

	// The restore target has its own junk agenda that must vanish.
	var logB []string
	b := NewScheduler()
	hb := newRec(b, &logB, "x", "y")
	_, decB := codec(hb)
	b.Post(Time(5), hb["x"], 999)
	b.PostAfter(Time(7), hb["y"], 998)

	if err := b.RestoreState(st, decB); err != nil {
		t.Fatal(err)
	}
	tm2 := attachTimer(t, b, tmJSON)

	if b.Now() != a.Now() {
		t.Fatalf("clock %v vs %v", b.Now(), a.Now())
	}
	if b.Pending() != a.Pending() {
		t.Fatalf("pending %d vs %d", b.Pending(), a.Pending())
	}
	if b.Fired() != a.Fired() {
		t.Fatalf("fired %d vs %d", b.Fired(), a.Fired())
	}
	if !tm2.Active() {
		t.Fatal("restored timer is inactive; its event is on the restored agenda")
	}

	a.RunAll()
	b.RunAll()
	if !reflect.DeepEqual(logA[preLen:], logB) {
		t.Fatalf("pop order diverged:\n a: %v\n b: %v", logA[preLen:], logB)
	}
	if b.Fired() != a.Fired() {
		t.Fatalf("final fired %d vs %d", b.Fired(), a.Fired())
	}
}

// TestSchedulerRestoreTimerStop: a restored timer handle must still
// cancel its event (Attach finds it by seq on the restored agenda).
func TestSchedulerRestoreTimerStop(t *testing.T) {
	var log []string
	a := NewScheduler()
	ha := newRec(a, &log, "x")
	enc, _ := codec(ha)
	var tm Timer
	a.ResetAt(&tm, Time(50), ha["x"], 1)
	st, err := a.ExportState(enc)
	if err != nil {
		t.Fatal(err)
	}
	tmJSON := marshalTimer(t, &tm)

	b := NewScheduler()
	hb := newRec(b, &log, "x")
	_, dec := codec(hb)
	if err := b.RestoreState(st, dec); err != nil {
		t.Fatal(err)
	}
	tm2 := attachTimer(t, b, tmJSON)
	if !tm2.Stop() {
		t.Fatal("restored timer failed to cancel its event")
	}
	b.RunAll()
	if len(log) != 0 {
		t.Fatalf("cancelled event fired anyway: %v", log)
	}
}

// TestSchedulerStateJSONStable: the exported state must survive a JSON
// round-trip bit-exactly — the envelope stores it as JSON.
func TestSchedulerStateJSONStable(t *testing.T) {
	var log []string
	a := NewScheduler()
	ha := newRec(a, &log, "x")
	enc, dec := codec(ha)
	for i := 0; i < 5; i++ {
		a.Post(Time(7*(i+1)), ha["x"], i)
	}
	a.Run(Time(10))
	st, err := a.ExportState(enc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 SchedulerState
	if err := json.Unmarshal(data, &st2); err != nil {
		t.Fatal(err)
	}
	b := NewScheduler()
	if err := b.RestoreState(st2, dec); err != nil {
		t.Fatal(err)
	}
	st3, err := b.ExportState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st3) {
		t.Fatal("state diverged across JSON round-trip")
	}
}

// TestRNGStateRoundTrip: an RNG decoded from its JSON form continues
// the stream exactly.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(12345)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	saved, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := 0; i < 10; i++ {
		want = append(want, r.Uint64())
	}
	r2 := NewRNG(1)
	if err := json.Unmarshal(saved, r2); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if g := r2.Uint64(); g != w {
			t.Fatalf("draw %d: %s vs %s", i, strconv.FormatUint(g, 16), strconv.FormatUint(w, 16))
		}
	}
}

// marshalTimer encodes a timer handle as a component's state struct
// would store it.
func marshalTimer(t *testing.T, tm *Timer) []byte {
	t.Helper()
	b, err := json.Marshal(tm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// attachTimer decodes a stored handle and attaches it to s.
func attachTimer(t *testing.T, s *Scheduler, b []byte) *Timer {
	t.Helper()
	tm := new(Timer)
	if err := json.Unmarshal(b, tm); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(tm); err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestTimerDetachedUntilAttached: a decoded handle exports as unset
// until it is attached — a round trip that forgets Attach changes bytes
// — and a never-set handle stays zero through the whole cycle.
func TestTimerDetachedUntilAttached(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	s.ResetAfter(&tm, Time(9), &orderRecorder{}, uint64(0))
	orig := marshalTimer(t, &tm)
	var dec Timer
	if err := json.Unmarshal(orig, &dec); err != nil {
		t.Fatal(err)
	}
	if got := marshalTimer(t, &dec); string(got) != "null" || dec.Active() || dec.Stop() {
		t.Fatalf("detached timer exports %s, active %v; want an inactive, unset handle", got, dec.Active())
	}
	if err := s.Attach(&dec); err != nil {
		t.Fatal(err)
	}
	if got := marshalTimer(t, &dec); string(got) != string(orig) {
		t.Fatalf("attached timer exports %s, want %s", got, orig)
	}
	var zero Timer
	if err := json.Unmarshal(marshalTimer(t, &zero), &zero); err != nil || s.Attach(&zero) != nil || zero != (Timer{}) {
		t.Fatalf("unset timer did not stay zero: %+v, %v", zero, err)
	}
}

// TestSchedulerRestoreRejectsBadSeqs is the seq damage table: a
// checkpoint whose agenda lists an event seq twice, or an event or
// timer seq the scheduler has not issued yet, fails with ErrSeq instead
// of letting a later event share a seq with a restored one. A timer
// naming a seq that already fired is no damage: it attaches inactive.
func TestSchedulerRestoreRejectsBadSeqs(t *testing.T) {
	h := &recHandler{name: "x", log: new([]string)}
	dec := func(string, json.RawMessage) (EventHandler, any, error) { return h, 0, nil }
	ev := func(seq uint64) EventRecord { return EventRecord{At: 5, Seq: seq, Owner: "x"} }
	for _, tc := range []struct {
		name string
		st   SchedulerState
	}{
		{"event seq listed twice", SchedulerState{NextSeq: 5, Events: []EventRecord{ev(2), ev(2)}}},
		{"event seq not yet issued", SchedulerState{NextSeq: 2, Events: []EventRecord{ev(1), ev(2)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := NewScheduler().RestoreState(tc.st, dec); !errors.Is(err, ErrSeq) {
				t.Fatalf("RestoreState = %v, want %v", err, ErrSeq)
			}
		})
	}
	restored := func(t *testing.T) *Scheduler {
		s := NewScheduler()
		if err := s.RestoreState(SchedulerState{NextSeq: 3, Events: []EventRecord{ev(1)}}, dec); err != nil {
			t.Fatal(err)
		}
		h.s = s
		return s
	}
	decode := func(t *testing.T, b string) *Timer {
		tm := new(Timer)
		if err := json.Unmarshal([]byte(b), tm); err != nil {
			t.Fatal(err)
		}
		return tm
	}
	t.Run("timer seq not yet issued", func(t *testing.T) {
		if err := restored(t).Attach(decode(t, "3")); !errors.Is(err, ErrSeq) {
			t.Fatalf("Attach = %v, want %v", err, ErrSeq)
		}
	})
	t.Run("timer seq already fired", func(t *testing.T) {
		s := restored(t)
		gone, live := decode(t, "0"), decode(t, "1")
		if err := s.Attach(gone, live); err != nil {
			t.Fatal(err)
		}
		if gone.Active() || gone.Stop() {
			t.Fatal("a timer naming a seq no longer on the agenda is active")
		}
		if !live.Active() {
			t.Fatal("a timer naming a seq on the agenda is inactive")
		}
		s.RunAll()
		if len(*h.log) != 1 {
			t.Fatalf("restored run fired %v, want the one restored event", *h.log)
		}
	})
}
