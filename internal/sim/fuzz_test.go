package sim

import (
	"encoding/json"
	"testing"
)

// fuzzRecorder logs each fired event's id and the clock it fired at,
// giving the fuzzer an observable total order of execution. s follows
// the scheduler under test across checkpoint/restore.
type fuzzRecorder struct {
	s     *Scheduler
	fired []fuzzFired
}

type fuzzFired struct {
	id uint64
	at Time
}

func (r *fuzzRecorder) HandleEvent(arg any) {
	r.fired = append(r.fired, fuzzFired{arg.(uint64), r.s.Now()})
}

// fuzzDelta decodes one byte on an exponent scale: mantissa 0–7 shifted
// by 0–31, so 0 ns … 15 s. Small exponents land in the bucket the
// clock is in, middling ones across the ring (and, as the clock moves,
// across the bitmap's wrap), large ones deep in the far heap.
func fuzzDelta(b byte) Time { return Time(b&7) << (b >> 3) }

// Delta bytes the in-code seeds use.
const (
	fz1us   = 10<<3 | 1 // 1<<10 ns ≈ 1 µs
	fz2ms   = 21<<3 | 1 // 1<<21 ns ≈ 2.1 ms: inside the ring
	fz3ms   = 19<<3 | 7 // 7<<19 ns ≈ 3.7 ms: inside the ring
	fzShort = 22<<3 | 1 // 1<<22 ns ≈ 4.2 ms: a Run horizon short of fz6ms
	fz6ms   = 20<<3 | 6 // 6<<20 ns ≈ 6.3 ms: beyond the window
	fz1s    = 30<<3 | 1 // 1<<30 ns ≈ 1.07 s: deep in the far heap
)

// FuzzScheduler drives the agenda with a random interleaving of Post,
// ResetAt, Stop, Step, Run and checkpoint/restore decoded from the fuzz
// input (three bytes per operation: op, delta, selector), against a flat
// reference model (a plain slice, min by (deadline, seq)). Checked
// invariants: events fire in exact (deadline, scheduling-order) order,
// the clock lands on each fired deadline, Run fires exactly the events
// due by its horizon and leaves the clock on it, Stop's return value
// matches the model's notion of pending, a fired or stopped timer is
// inactive, a restored scheduler continues the sequence unchanged, and
// Pending tracks the model's size after every operation.
//
// The in-code seeds pin the traps of the two-tier agenda; each was
// checked to fail under the mutation it names.
func FuzzScheduler(f *testing.F) {
	const (
		post, reset, stop, step, run, edge, restore = 0, 1, 2, 3, 4, 5, 6
	)
	f.Add([]byte{post, 10, 0, post, 5, 0, step, 0, 0, step, 0, 0, step, 0, 0})
	f.Add([]byte{reset, fz1us, 0, reset, fz1us, 1, stop, 0, 0, step, 0, 0, reset, 64, 1, stop, 0, 1, step, 0, 0})
	f.Add([]byte{post, 3, 0, reset, 3, 1, reset, 3, 1, step, 0, 0, stop, 0, 3, post, 0, 0, step, 0, 0, step, 0, 0})
	f.Add([]byte{reset, 7, 3, reset, 7, 3, reset, 7, 3, step, 0, 0, step, 0, 0, stop, 0, 3, post, 1, 0, step, 0, 0})
	// Missing bitmap clear: two buckets, drained one after the other.
	f.Add([]byte{post, fz1us, 0, post, fz2ms, 0, step, 0, 0, step, 0, 0, post, fz1us, 0, step, 0, 0})
	// Admit before select: firing A moves the window over far event F;
	// D is then filed in the ring behind F and must not overtake it.
	f.Add([]byte{post, fz3ms, 0, post, fz6ms, 0, step, 0, 0, post, fz3ms, 0, step, 0, 0, step, 0, 0})
	// One deadline reached two ways: F is filed far, admitted when A
	// fires, and D is then filed near at F's exact deadline; the chain
	// must still hold them in scheduling order.
	f.Add([]byte{post, fz6ms, 0, post, fz3ms, 0, step, 0, 0, post, 19<<3 | 5, 0, post, fz6ms, 0, step, 0, 0, step, 0, 0})
	// Peeking must not move the window: Run stops short of far event F,
	// then E (due first) and R (due after F) are posted.
	f.Add([]byte{post, fz6ms, 0, run, fzShort, 0, post, fz3ms, 0, post, fz1us, 0, step, 0, 0, step, 0, 0, step, 0, 0})
	// The window edge: tick-base = 1023 is the ring's last bucket, 1024
	// is the first far tick and must not alias the cursor's bucket.
	f.Add([]byte{post, fz3ms, 0, edge, 0, 0, edge, 0, 1, edge, 9, 1, edge, 9, 0, step, 0, 0, step, 0, 0, step, 0, 0, step, 0, 0, step, 0, 0})
	// Run leaves now past the window's base without firing (trap 4):
	// the next inserts are near now but far from base.
	f.Add([]byte{post, fz1us, 0, step, 0, 0, run, fz6ms, 0, post, fz1us, 0, post, 0, 0, reset, fz2ms, 2, post, fz6ms, 0, step, 0, 0, step, 0, 0})
	// Stop on far timers, from the root and from the middle of the heap.
	f.Add([]byte{reset, fz1s, 0, reset, fz6ms, 1, reset, fz1s, 2, reset, fz6ms, 3, stop, 0, 1, stop, 0, 2, post, fz1us, 0, step, 0, 0, step, 0, 0, step, 0, 0})
	// Stop in the far heap where the displaced tail must sift up: d
	// leaves position 3 and g (from the other subtree) is smaller than
	// d's parent b; x keeps g off the tail until b reaches the root.
	const e23 = 23 << 3 // 8.4 ms units, all beyond the window
	f.Add([]byte{post, e23 | 1, 0, post, e23 | 5, 0, post, e23 | 2, 0, reset, e23 | 6, 0, post, e23 | 7, 0, post, e23 | 4, 0, post, e23 | 3, 0, stop, 0, 0, post, e23 | 6, 0})
	// Stop from the middle and then the tail of one bucket's chain.
	f.Add([]byte{reset, fz1us, 0, reset, fz1us, 1, reset, fz1us, 2, stop, 0, 1, stop, 0, 0, step, 0, 0, reset, fz1us, 3})
	// Checkpoint mid-sequence with armed near and far timers, then keep
	// going on the restored scheduler.
	f.Add([]byte{post, fz1us, 0, reset, fz2ms, 0, reset, fz1s, 1, post, fz6ms, 0, step, 0, 0, restore, 0, 0, stop, 0, 1, reset, fz3ms, 1, post, 0, 0, restore, 0, 0, step, 0, 0, step, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &fuzzRecorder{s: NewScheduler()}
		s := rec.s

		type mev struct {
			at  Time
			seq int
			id  uint64
		}
		var model []mev
		const none = ^uint64(0)
		var timers [4]Timer
		timerEvent := [4]uint64{none, none, none, none}

		indexOf := func(id uint64) int {
			for i, e := range model {
				if e.id == id {
					return i
				}
			}
			return -1
		}
		removeID := func(id uint64) {
			if i := indexOf(id); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
		}
		minEvent := func() mev {
			best := 0
			for i := 1; i < len(model); i++ {
				if model[i].at < model[best].at ||
					(model[i].at == model[best].at && model[i].seq < model[best].seq) {
					best = i
				}
			}
			return model[best]
		}
		var nextID uint64
		seq := 0
		add := func(at Time) uint64 {
			id := nextID
			nextID++
			model = append(model, mev{at: at, seq: seq, id: id})
			seq++
			return id
		}
		// expect checks that the k-th fired record is the model's next
		// event, and retires it.
		expect := func(k int) {
			exp := minEvent()
			if got := rec.fired[k]; got.id != exp.id || got.at != exp.at {
				t.Fatalf("fired event %d at %v, model says %d is next (at %v, seq %d)", got.id, got.at, exp.id, exp.at, exp.seq)
			}
			removeID(exp.id)
			for ti, id := range timerEvent {
				if id == exp.id {
					timerEvent[ti] = none
					if timers[ti].Active() {
						t.Fatalf("timer %d still active after its event fired", ti)
					}
					if timers[ti].Stop() {
						t.Fatalf("timer %d Stop succeeded after its event fired", ti)
					}
				}
			}
		}
		doStep := func() {
			before := len(rec.fired)
			if len(model) == 0 {
				if s.Step() {
					t.Fatal("Step fired with an empty model")
				}
				return
			}
			exp := minEvent()
			if !s.Step() {
				t.Fatalf("Step returned false with %d modelled events pending", len(model))
			}
			if len(rec.fired) != before+1 {
				t.Fatalf("Step fired %d events, want exactly 1", len(rec.fired)-before)
			}
			expect(before)
			if s.Now() != exp.at {
				t.Fatalf("clock at %v after firing event with deadline %v", s.Now(), exp.at)
			}
		}
		encode := func(target EventHandler, arg any) (string, json.RawMessage, error) {
			raw, err := json.Marshal(arg.(uint64))
			return "rec", raw, err
		}
		decode := func(owner string, raw json.RawMessage) (EventHandler, any, error) {
			var id uint64
			err := json.Unmarshal(raw, &id)
			return rec, id, err
		}

		for k := 0; k+2 < len(data); k += 3 {
			op, d, sel := data[k], data[k+1], data[k+2]
			switch op % 7 {
			case post:
				at := s.Now() + fuzzDelta(d)
				s.Post(at, rec, add(at))
			case edge: // Post on the last ring tick or the first far one
				at := Time(s.base+ringSize-1+int64(sel&1))<<tickShift + Time(d)*16
				if at < s.Now() {
					at = s.Now()
				}
				s.Post(at, rec, add(at))
			case reset: // ResetAt on a pooled timer (stopping it first if armed)
				ti := int(sel) % len(timers)
				if timerEvent[ti] != none && indexOf(timerEvent[ti]) >= 0 {
					if !timers[ti].Stop() {
						t.Fatalf("timer %d pending in model but Stop returned false", ti)
					}
					removeID(timerEvent[ti])
				}
				at := s.Now() + fuzzDelta(d)
				id := add(at)
				s.ResetAt(&timers[ti], at, rec, id)
				if !timers[ti].Active() {
					t.Fatalf("timer %d inactive immediately after ResetAt", ti)
				}
				timerEvent[ti] = id
			case stop:
				ti := int(sel) % len(timers)
				wasPending := timerEvent[ti] != none && indexOf(timerEvent[ti]) >= 0
				if got := timers[ti].Stop(); got != wasPending {
					t.Fatalf("timer %d Stop = %v, model says pending = %v", ti, got, wasPending)
				}
				if wasPending {
					removeID(timerEvent[ti])
				}
				timerEvent[ti] = none
			case step:
				doStep()
			case run: // Run to a horizon that may fall between events
				until := s.Now() + fuzzDelta(d)
				before := len(rec.fired)
				s.Run(until)
				for k := before; k < len(rec.fired); k++ {
					if len(model) == 0 {
						t.Fatalf("Run fired %d events past an empty model", len(rec.fired)-k)
					}
					expect(k)
				}
				if len(model) > 0 && minEvent().at <= until {
					t.Fatalf("Run(%v) left event due at %v unfired", until, minEvent().at)
				}
				if s.Now() != until {
					t.Fatalf("clock at %v after Run(%v)", s.Now(), until)
				}
			case restore: // checkpoint, and continue on a fresh scheduler
				st, err := s.ExportState(encode)
				if err != nil {
					t.Fatal(err)
				}
				fresh := NewScheduler()
				fresh.Post(Time(sel), rec, none) // skeleton noise RestoreState must discard
				if err := fresh.RestoreState(st, decode); err != nil {
					t.Fatal(err)
				}
				for ti := range timers {
					b, err := json.Marshal(&timers[ti])
					if err != nil {
						t.Fatal(err)
					}
					timers[ti] = Timer{}
					if err := json.Unmarshal(b, &timers[ti]); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Attach(&timers[ti]); err != nil {
						t.Fatal(err)
					}
				}
				if fresh.Now() != s.Now() || fresh.Fired() != s.Fired() {
					t.Fatalf("restored clock/fired %v/%d, want %v/%d", fresh.Now(), fresh.Fired(), s.Now(), s.Fired())
				}
				s, rec.s = fresh, fresh
			}
			if s.Pending() != len(model) {
				t.Fatalf("Pending() = %d, model holds %d", s.Pending(), len(model))
			}
		}
		for len(model) > 0 {
			doStep()
		}
		if s.Step() {
			t.Fatal("agenda not empty after draining the model")
		}
	})
}
