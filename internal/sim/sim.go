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
// the pop sequence is independent of how the agenda is laid out. A seq
// is never reused, which is also what lets a Timer name its event.
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
	next, prev int32
	pos        int32
}

const (
	posRing = -1 // the event is chained into a ring bucket
	posFree = -2 // the slab entry is on the free list
)

// Timer is a caller-owned handle to a scheduled event, which it names by
// slab index and seq; it can be stopped before firing. Once the event
// fires or is stopped its slab entry is freed and may be reused, but
// never under the same seq, so a stale handle cannot reach a later
// event. ev is -1 for a handle whose event is known to be gone. The zero
// value is an unset timer.
type Timer struct {
	s   *Scheduler
	ev  int32
	seq uint64
}

// Stop cancels the timer. It reports whether the timer was still pending
// (false if it already fired or was previously stopped). Stopping a nil
// timer is a no-op that returns false.
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.remove(t.ev)
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	if t == nil || t.s == nil || t.ev < 0 {
		return false
	}
	ev := &t.s.events[t.ev]
	return ev.pos != posFree && ev.seq == t.seq
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

	// restored maps the seq of every event RestoreState filed to its
	// slab index, for Attach; nil on a scheduler never restored.
	restored map[uint64]int32

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

// Post schedules h.HandleEvent(arg) at absolute virtual time t with no
// cancellation handle. This is the zero-allocation path: the event lives
// by value in the agenda's slab, so steady-state traffic (which posts and
// fires at the same rate) touches no allocator. Scheduling in the past
// panics: a MAC state machine that rewinds time is a bug, not a request.
func (s *Scheduler) Post(t Time, h EventHandler, arg any) {
	s.schedule(t, h, arg)
}

// PostAfter schedules h.HandleEvent(arg) d after the current time with
// no cancellation handle. A negative d is taken as zero.
func (s *Scheduler) PostAfter(d Time, h EventHandler, arg any) {
	s.schedule(s.now+max(d, 0), h, arg)
}

// ResetAt re-arms the caller-owned timer tm to run h.HandleEvent(arg) at
// absolute virtual time t. Components that re-arm a fixed timer per
// frame (DIFS, backoff, ACK wait) embed a Timer value and pass its
// address here, so steady-state re-arming touches no allocator. tm must
// not be active; a previously fired, stopped, or zero-valued Timer is
// ready for reuse.
func (s *Scheduler) ResetAt(tm *Timer, t Time, h EventHandler, arg any) {
	seq := s.nextSeq
	*tm = Timer{s: s, ev: s.schedule(t, h, arg), seq: seq}
}

// ResetAfter re-arms the caller-owned timer tm to run h.HandleEvent(arg)
// d after the current time. A negative d is taken as zero.
func (s *Scheduler) ResetAfter(tm *Timer, d Time, h EventHandler, arg any) {
	s.ResetAt(tm, s.now+max(d, 0), h, arg)
}

// schedule files h.HandleEvent(arg) at t under the next seq and returns
// its slab index.
func (s *Scheduler) schedule(t Time, h EventHandler, arg any) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.nextSeq++
	return s.add(event{at: t, seq: s.nextSeq - 1, target: h, arg: arg})
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
// window to it, and runs it. The slab entry is freed before the handler
// runs, so a Stop from inside it reports false for the event executing.
func (s *Scheduler) fire(i int32) {
	ev := &s.events[i]
	at, target, arg := ev.at, ev.target, ev.arg
	s.remove(i)
	s.now = at
	if t := tickOf(at); t != s.base {
		s.base = t
		s.admit()
	}
	s.fired++
	target.HandleEvent(arg)
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
