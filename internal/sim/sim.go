package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately not time.Time: simulations begin at zero
// and have no wall-clock meaning.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// An EventHandler receives fired events. Components that schedule events
// per frame implement it once and pass per-event context through arg, so
// the steady-state schedule→fire cycle performs no heap allocation (a
// closure per event would allocate; a pointer-shaped arg does not).
type EventHandler interface {
	HandleEvent(arg any)
}

// event is a scheduled callback. It lives in the scheduler's slab from
// insert to fire and is never moved: the ring and the far heap order
// slab indices, not events. Events with equal deadlines fire in
// scheduling order (seq breaks ties), so (at, seq) is a total order and
// the pop sequence is independent of how the agenda is laid out. slot
// indexes the cancellation table for timer-backed events; -1 marks the
// uncancellable fire-and-forget events of the hot path.
//
// next and prev chain the event into its ring bucket (or, next alone,
// into the slab's free list). Every slab index the agenda stores is
// index+1, so a zeroed bucket head or free-list link means "none". pos
// is the event's position in the far heap, or one of the two markers
// below.
type event struct {
	at         Time
	seq        uint64
	target     EventHandler
	arg        any
	slot       int32
	next, prev int32
	pos        int32
}

const (
	posRing = -1 // the event is chained into a ring bucket
	posFree = -2 // the slab entry is on the free list
)

// slotEntry tracks one cancellable event's slab index. gen
// disambiguates recycled slots: a Timer holds the generation it was
// issued with and goes stale when the slot is freed and reissued.
type slotEntry struct {
	ev  int32 // -1 once fired or stopped
	gen uint32
}

// funcRunner adapts func() callbacks to the EventHandler path; At and
// After wrap through it so closure-based callers keep compiling.
type funcRunner struct{}

func (funcRunner) HandleEvent(arg any) { arg.(func())() }

// Timer is a handle to a scheduled event; it can be stopped before
// firing. The zero value is not a valid timer.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
	at   Time
}

// Stop cancels the timer. It reports whether the timer was still pending
// (false if it already fired or was previously stopped). Stopping a nil
// timer is a no-op that returns false.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen || sl.ev < 0 {
		return false
	}
	t.s.remove(sl.ev)
	t.s.freeSlot(t.slot)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	if t == nil || t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.gen == t.gen && sl.ev >= 0
}

// When returns the deadline of the timer. It is valid even after the
// timer fired or was stopped.
func (t *Timer) When() Time {
	if t == nil {
		return 0
	}
	return t.at
}

// The agenda. Almost every event a wireless simulation schedules is a
// slot, a SIFS or a frame airtime ahead of now, so the next event is
// indexed by time instead of searched for by comparison:
//
//   - Events live once in a slab with an intrusive free list. An event is
//     written on insert and read on fire; nothing in between copies it.
//   - The near horizon is a ring of ringSize buckets, each one tick
//     (1<<tickShift ns) wide, covering ticks [base, base+ringSize) where
//     base is the tick of the last fired event. A bucket is a circular
//     doubly linked chain of slab indices (append and unlink are O(1)
//     however many events share a tick); an occupancy bitmap finds the
//     next non-empty bucket from the cursor, and the earliest event
//     inside it is a scan of the handful of events it holds.
//   - Anything later than the window waits in a binary heap of slab
//     indices and is admitted to the ring when firing an event advances
//     the window.
//
// Window invariant: every ring event has base <= tick < base+ringSize
// and every far event has tick >= base+ringSize. Far events are therefore
// later than every ring event, bucket order from the cursor is tick
// order, and pop order is exactly the (at, seq) total order whatever the
// layout. Only fire moves base (peeking must not: Run(until) may stop
// short of a far event and the next insert is filed against the old
// window), and it admits far events before the handler runs, so no
// insert can be filed ahead of an earlier event still in the heap. Run
// can leave now past the window's base without firing anything; inserts
// are bounded below by tick(now) >= base, and tick-base < ringSize is
// the only ring test.
//
// 4.096 µs × 1024 = 4.19 ms is sized to the traffic, not tunable: 9 µs
// slots, 16 µs SIFS and frames of at most 1.9 ms put 99 % of inserts
// inside it, buckets hold one to three events on the saturated
// workloads, and the fixed arrays (4 KB of heads, 128 B of bitmap) stay
// small enough for the figure suite to build hundreds of schedulers.
const (
	tickShift = 12
	ringSize  = 1024
	ringMask  = ringSize - 1
)

func tickOf(t Time) int64 { return int64(t) >> tickShift }

// Scheduler owns the virtual clock and the event agenda.
// The zero value is ready to use.
type Scheduler struct {
	now Time

	events []event // slab; live entries are in the ring or the far heap
	free   int32   // head of the slab's free list, as index+1

	base     int64                 // first tick of the ring's window
	ringN    int                   // events in the ring
	occupied [ringSize / 64]uint64 // bit b set iff heads[b] != 0
	heads    [ringSize]int32       // bucket chains, as index+1
	far      []int32               // binary min-heap of slab indices

	// Cancellation table for timer-backed events, with a free-list so
	// fired events recycle their slots instead of growing the table.
	slots     []slotEntry
	freeSlots []int32

	nextSeq uint64
	fired   uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting in the agenda.
func (s *Scheduler) Pending() int { return s.ringN + len(s.far) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

func (s *Scheduler) checkNotPast(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
}

// Post schedules h.HandleEvent(arg) at absolute virtual time t with no
// cancellation handle. This is the zero-allocation path: the event lives
// by value in the agenda's slab, so steady-state traffic (which posts and
// fires at the same rate) touches no allocator. Scheduling in the past
// panics, as with At.
func (s *Scheduler) Post(t Time, h EventHandler, arg any) {
	s.checkNotPast(t)
	s.add(event{at: t, seq: s.nextSeq, target: h, arg: arg, slot: -1})
	s.nextSeq++
}

// PostAfter schedules h.HandleEvent(arg) d after the current time with
// no cancellation handle.
func (s *Scheduler) PostAfter(d Time, h EventHandler, arg any) {
	if d < 0 {
		d = 0
	}
	s.Post(s.now+d, h, arg)
}

// AtHandler schedules h.HandleEvent(arg) at absolute virtual time t and
// returns a cancellation handle. Only the Timer itself is allocated; the
// event is stored by value and its cancellation slot is recycled.
func (s *Scheduler) AtHandler(t Time, h EventHandler, arg any) *Timer {
	tm := new(Timer)
	s.ResetAt(tm, t, h, arg)
	return tm
}

// ResetAt re-arms the caller-owned timer tm to run h.HandleEvent(arg) at
// absolute virtual time t. It is the allocation-free form of AtHandler:
// components that re-arm a fixed timer per frame (DIFS, backoff, ACK
// wait) embed a Timer value and pass its address here, so steady-state
// re-arming touches no allocator. tm must not be active; a previously
// fired, stopped, or zero-valued Timer is ready for reuse.
func (s *Scheduler) ResetAt(tm *Timer, t Time, h EventHandler, arg any) {
	s.checkNotPast(t)
	slot := s.allocSlot()
	*tm = Timer{s: s, slot: slot, gen: s.slots[slot].gen, at: t}
	s.slots[slot].ev = s.add(event{at: t, seq: s.nextSeq, target: h, arg: arg, slot: slot})
	s.nextSeq++
}

// ResetAfter re-arms the caller-owned timer tm to run h.HandleEvent(arg)
// d after the current time.
func (s *Scheduler) ResetAfter(tm *Timer, d Time, h EventHandler, arg any) {
	if d < 0 {
		d = 0
	}
	s.ResetAt(tm, s.now+d, h, arg)
}

// AfterHandler schedules h.HandleEvent(arg) d after the current time and
// returns a cancellation handle.
func (s *Scheduler) AfterHandler(d Time, h EventHandler, arg any) *Timer {
	if d < 0 {
		d = 0
	}
	return s.AtHandler(s.now+d, h, arg)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: a MAC state machine that rewinds time is a bug, not a
// request. At is a thin wrapper over the handler path; prefer Post for
// per-frame events on hot paths.
func (s *Scheduler) At(t Time, fn func()) *Timer {
	return s.AtHandler(t, funcRunner{}, fn)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Step executes the next event, advancing the clock to its deadline.
// It reports false when the agenda is empty.
func (s *Scheduler) Step() bool {
	i := s.peek()
	if i < 0 {
		return false
	}
	s.fire(i)
	return true
}

// Run executes events until the agenda is empty or the clock would pass
// until. The clock is left at until (or at the last event if the agenda
// drained first but never beyond until).
func (s *Scheduler) Run(until Time) {
	for {
		i := s.peek()
		if i < 0 || s.events[i].at > until {
			break
		}
		s.fire(i)
	}
	if s.now < until {
		s.now = until
	}
}

// RunAll executes events until the agenda is empty. Use only in tests or
// workloads that are guaranteed to quiesce.
func (s *Scheduler) RunAll() {
	for s.Step() {
	}
}

// peek returns the slab index of the earliest pending event, or -1. It
// changes nothing: the window moves only when an event fires.
func (s *Scheduler) peek() int32 {
	if s.ringN == 0 {
		if len(s.far) == 0 {
			return -1
		}
		return s.far[0]
	}
	// Chain order is scheduling order among equal deadlines (see link),
	// so the first event with the least deadline is the answer, and
	// nothing can be due before now: a burst scheduled for one instant
	// drains from the head without rescanning what is behind it.
	head := s.heads[s.nextBucket()] - 1
	best := head
	for i := s.events[head].next - 1; i != head && s.events[best].at != s.now; i = s.events[i].next - 1 {
		if s.events[i].at < s.events[best].at {
			best = i
		}
	}
	return best
}

// fire removes event i from the agenda, advances the clock and the
// window to it, and runs it.
func (s *Scheduler) fire(i int32) {
	ev := &s.events[i]
	at, target, arg, slot := ev.at, ev.target, ev.arg, ev.slot
	s.remove(i)
	if slot >= 0 {
		// Free before firing so Stop from inside the callback reports
		// false for the event already executing.
		s.freeSlot(slot)
	}
	s.now = at
	if t := tickOf(at); t != s.base {
		s.base = t
		s.admit()
	}
	s.fired++
	target.HandleEvent(arg)
}

// ---------------------------------------------------------------------------
// Cancellation slots.

func (s *Scheduler) allocSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	s.slots = append(s.slots, slotEntry{ev: -1})
	return int32(len(s.slots) - 1)
}

func (s *Scheduler) freeSlot(slot int32) {
	s.slots[slot].ev = -1
	s.slots[slot].gen++ // invalidate outstanding Timers
	s.freeSlots = append(s.freeSlots, slot)
}

// ---------------------------------------------------------------------------
// Slab.

// add stores ev in the slab, files it in the ring or the far heap by
// its deadline, and returns its slab index.
func (s *Scheduler) add(ev event) int32 {
	var i int32
	if s.free != 0 {
		i = s.free - 1
		s.free = s.events[i].next
	} else {
		s.events = append(s.events, event{})
		i = int32(len(s.events) - 1)
	}
	s.events[i] = ev
	if uint64(tickOf(ev.at)-s.base) < ringSize {
		s.link(i)
	} else {
		s.farPush(i)
	}
	return i
}

// remove takes event i out of whichever tier holds it and returns its
// slab entry to the free list, dropping the target/arg references.
func (s *Scheduler) remove(i int32) {
	if pos := s.events[i].pos; pos >= 0 {
		s.farRemove(int(pos))
	} else {
		s.unlink(i)
	}
	s.events[i] = event{next: s.free, pos: posFree}
	s.free = i + 1
}

// ---------------------------------------------------------------------------
// Ring.

// link appends event i to its bucket's chain. Chains are circular — the
// head's prev is the tail — so appending walks nothing and needs no
// array of tails.
//
// Appending keeps every chain in scheduling order among equal deadlines,
// which is what lets peek compare deadlines alone. Direct inserts arrive
// in seq order. Far events of tick T are admitted together, in (at, seq)
// order, by the first fire that brings T inside the window, before that
// event's handler runs; a direct insert into T needs T inside the window,
// so it comes after them in the chain, and it was scheduled after them
// too: the window only moves forward, so they were filed (far) under an
// earlier window than it was (near). RestoreState inserts in (at, seq)
// order against a single window.
func (s *Scheduler) link(i int32) {
	ev := &s.events[i]
	b := tickOf(ev.at) & ringMask
	ev.pos = posRing
	if head := s.heads[b]; head != 0 {
		tail := s.events[head-1].prev
		ev.next, ev.prev = head, tail
		s.events[tail-1].next = i + 1
		s.events[head-1].prev = i + 1
	} else {
		ev.next, ev.prev = i+1, i+1
		s.heads[b] = i + 1
		s.occupied[b>>6] |= 1 << (b & 63)
	}
	s.ringN++
}

// unlink takes event i out of its bucket's chain.
func (s *Scheduler) unlink(i int32) {
	ev := &s.events[i]
	b := tickOf(ev.at) & ringMask
	if ev.next == i+1 { // alone in the bucket
		s.heads[b] = 0
		s.occupied[b>>6] &^= 1 << (b & 63)
	} else {
		s.events[ev.prev-1].next = ev.next
		s.events[ev.next-1].prev = ev.prev
		if s.heads[b] == i+1 {
			s.heads[b] = ev.next
		}
	}
	s.ringN--
}

// nextBucket returns the first occupied bucket at or after the cursor,
// in ring order. The ring must not be empty.
func (s *Scheduler) nextBucket() int {
	c := int(s.base & ringMask)
	w := c >> 6
	if m := s.occupied[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	// The last step wraps back onto the cursor's own word, whose bits
	// at and above the cursor are known clear.
	for range s.occupied {
		w = (w + 1) % len(s.occupied)
		if m := s.occupied[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ring count and occupancy bitmap disagree")
}

// admit moves every far event the window now covers into the ring.
func (s *Scheduler) admit() {
	for len(s.far) > 0 {
		i := s.far[0]
		if tickOf(s.events[i].at)-s.base >= ringSize {
			break
		}
		s.farRemove(0)
		s.link(i)
	}
}

// ---------------------------------------------------------------------------
// Far heap: a binary min-heap of slab indices ordered by the events'
// (at, seq), hole-based, with each event's position kept in its pos
// field so a timer can be stopped in O(log n).

// eventLess orders events by (deadline, scheduling sequence).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) farPlace(p int, i int32) {
	s.far[p] = i
	s.events[i].pos = int32(p)
}

func (s *Scheduler) farPush(i int32) {
	s.far = append(s.far, i)
	s.farUp(len(s.far)-1, i)
}

// farUp moves the hole at position p rootward until event i fits, then
// places i into it.
func (s *Scheduler) farUp(p int, i int32) {
	for p > 0 {
		parent := (p - 1) / 2
		if !eventLess(&s.events[i], &s.events[s.far[parent]]) {
			break
		}
		s.farPlace(p, s.far[parent])
		p = parent
	}
	s.farPlace(p, i)
}

// farDown moves the hole at position p leafward until event i fits,
// then places i into it.
func (s *Scheduler) farDown(p int, i int32) {
	n := len(s.far)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && eventLess(&s.events[s.far[c+1]], &s.events[s.far[c]]) {
			c++
		}
		if !eventLess(&s.events[s.far[c]], &s.events[i]) {
			break
		}
		s.farPlace(p, s.far[c])
		p = c
	}
	s.farPlace(p, i)
}

// farRemove removes the entry at heap position p. The displaced tail
// entry may belong on either side of p, so it is sifted down first and,
// if it did not move, up.
func (s *Scheduler) farRemove(p int) {
	n := len(s.far) - 1
	tail := s.far[n]
	s.far = s.far[:n]
	if p == n {
		return
	}
	s.farDown(p, tail)
	if s.far[p] == tail {
		s.farUp(p, tail)
	}
}
