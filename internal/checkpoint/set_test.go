package checkpoint

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// setOracle is the map a Set replaces.
type setOracle map[uint32]struct{}

// members walks s with First and Next.
func members(s *Set) []uint32 {
	var ks []uint32
	for x, ok := s.First(); ok; x, ok = s.Next(x) {
		ks = append(ks, x)
	}
	return ks
}

func (o setOracle) sorted() []uint32 {
	ks := make([]uint32, 0, len(o))
	for k := range o {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// requireSame fails unless s holds exactly o's members, in ascending
// order, and answers Len and Has as o does.
func requireSame(t *testing.T, where string, s *Set, o setOracle) {
	t.Helper()
	if got, want := members(s), o.sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: members %v, want %v", where, got, want)
	}
	if s.Len() != len(o) {
		t.Fatalf("%s: Len %d, want %d", where, s.Len(), len(o))
	}
	for k := range o {
		if !s.Has(k) {
			t.Fatalf("%s: Has(%d) false for a member", where, k)
		}
	}
}

// TestSetMatchesMapOracle drives a Set and a map through the same
// seeded random operations: adds in a window that slides upwards, adds
// below the set's base, jumps that open spans of several thousand
// sequence numbers, deletes, clears followed by reuse, walks
// that delete as they go, and JSON round trips. After every operation
// the two must hold the same members.
func TestSetMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5e7))
		var s Set
		o := setOracle{}
		// The window's low edge: most members land in [low, low+300).
		low := uint32(r.IntN(1 << 20))
		pick := func() uint32 {
			switch r.IntN(10) {
			case 0: // below the window, often below the set's base
				return low - uint32(r.IntN(2000))
			case 1: // far above: a span of more than 1 000
				return low + 1000 + uint32(r.IntN(6000))
			default:
				return low + uint32(r.IntN(300))
			}
		}
		for step := 0; step < 3000; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.IntN(100); {
			case op < 45:
				x := pick()
				s.Add(x)
				o[x] = struct{}{}
			case op < 70:
				x := pick()
				if s.Has(x) != (func() bool { _, ok := o[x]; return ok })() {
					t.Fatalf("%s: Has(%d) disagrees with the oracle", where, x)
				}
				s.Delete(x)
				delete(o, x)
			case op < 80: // the window slides, retiring its low members
				low += uint32(r.IntN(64))
				for k := range o {
					if k < low && r.IntN(4) > 0 {
						s.Delete(k)
						delete(o, k)
					}
				}
			case op < 83:
				s.Clear()
				clear(o)
			case op < 90: // a walk that deletes as it goes
				want := o.sorted()
				gone := map[uint32]bool{}
				next := 0
				for x, ok := s.First(); ok; x, ok = s.Next(x) {
					for next < len(want) && gone[want[next]] {
						next++
					}
					if next == len(want) || want[next] != x {
						t.Fatalf("%s: loop yielded %d out of turn", where, x)
					}
					next++
					switch r.IntN(4) {
					case 0: // the member just yielded
						s.Delete(x)
						delete(o, x)
					case 1: // any member, often one the loop has yet to reach
						if len(want) > 0 {
							y := want[r.IntN(len(want))]
							s.Delete(y)
							delete(o, y)
							gone[y] = true
						}
					}
					if r.IntN(50) == 0 {
						break
					}
				}
			case op < 95: // a JSON round trip, into a fresh set and over s itself
				b, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := json.Marshal(o.sorted()); string(b) != string(want) {
					t.Fatalf("%s: encoded %s, want %s", where, b, want)
				}
				var fresh Set
				if err := json.Unmarshal(b, &fresh); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				requireSame(t, where+" (decoded)", &fresh, o)
				if err := json.Unmarshal(b, &s); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if len(o) > 0 {
					ks := o.sorted()
					dup := append(ks, ks[r.IntN(len(ks))])
					r.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
					db, _ := json.Marshal(dup)
					if err := json.Unmarshal(db, &fresh); err == nil {
						t.Fatalf("%s: %s was accepted with a member listed twice", where, db)
					}
				}
			default:
				if x := pick(); s.Has(x) != (func() bool { _, ok := o[x]; return ok })() {
					t.Fatalf("%s: Has(%d) disagrees with the oracle", where, x)
				}
			}
			if s.Len() != len(o) {
				t.Fatalf("%s: Len %d, want %d", where, s.Len(), len(o))
			}
			if step%50 == 0 {
				requireSame(t, where, &s, o)
			}
		}
		requireSame(t, fmt.Sprintf("seed %d end", seed), &s, o)
	}
}

// TestSetDecodeRefuses: a set that is not an array of sequence numbers,
// that lists a member twice, or whose members lie further apart than
// any window could is refused; the widest accepted span decodes.
func TestSetDecodeRefuses(t *testing.T) {
	var s Set
	for _, bad := range []string{`[3,1,3]`, `7`, `{"1":{}}`, `[-1]`, fmt.Sprintf("[0,%d]", maxDecodedSpan)} {
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("set %s was accepted", bad)
		}
	}
	for _, good := range []string{`[]`, `null`, fmt.Sprintf("[%d,%d]", 4000000000, 4000000000+maxDecodedSpan-1)} {
		if err := json.Unmarshal([]byte(good), &s); err != nil {
			t.Errorf("set %s was refused: %v", good, err)
		}
	}
	if s.Len() != 2 || !s.Has(4000000000) || !s.Has(4000000000+maxDecodedSpan-1) {
		t.Fatalf("decoded %v", members(&s))
	}
	if b, _ := json.Marshal(Set{}); string(b) != "[]" {
		t.Fatalf("the empty set encodes as %s, want []", b)
	}
}

// TestSetSlidingWindowAllocatesNothing: a window that slides upwards
// through a set, with the Clear a full acknowledgement does, reuses the
// set's words once they have grown to the window's span, and from the
// start when Reserve sized them for it.
func TestSetSlidingWindowAllocatesNothing(t *testing.T) {
	var s Set
	next, acked := uint32(0), uint32(0)
	slide := func() {
		for range 256 {
			s.Add(next)
			next++
		}
		for acked < next-64 {
			s.Delete(acked)
			acked++
		}
		if next%4096 == 2048 {
			s.Clear()
			acked = next
		}
	}
	for range 64 {
		slide()
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for range 1000 {
			slide()
		}
	}); allocs != 0 {
		t.Fatalf("a sliding window allocated %.0f objects over 1000 slides, want 0", allocs)
	}
	if s.Len() == 0 {
		t.Fatal("the window is empty: the test slid nothing")
	}

	// No warm-up here: the count starts with the set's first member.
	var r Set
	r.Reserve(320) // the slides below keep their members under 320 apart
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for base := uint32(1 << 31); base < 1<<31+100*192; base += 192 {
		for x := base; x < base+256; x++ {
			r.Add(x)
		}
		for x := base; x < base+192; x++ {
			r.Delete(x)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 || r.Len() != 64 {
		t.Fatalf("a reserved set allocated %d objects over 100 slides (%d members), want 0", allocs, r.Len())
	}
}
