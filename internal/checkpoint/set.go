package checkpoint

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
)

// Set is a set of sequence numbers kept as a sliding bitmap: bit j of
// words[i] stands for base+64i+j. It is made for members that lie in a
// window moving upwards, as a sender's unacknowledged packets and a
// receiver's selective acknowledgements do. Its memory is the span from
// its least to its greatest member, not its member count, and once its
// words have grown to the window's span, adding, deleting and clearing
// allocate nothing. The zero Set is empty and ready to use.
//
// Its checkpoint form is its members in ascending order — half the
// bytes of encoding/json's own form of a map[uint32]struct{}.
type Set struct {
	base  uint32 // the member bit 0 of words[0] stands for; a multiple of 64
	words []uint64
	n     int
}

// maxDecodedSpan bounds the span of a decoded set: far above any
// window a station keeps (core's cap is under 2^18 packets), and small
// enough that a corrupt checkpoint cannot make a decode allocate
// gigabytes of words.
const maxDecodedSpan = 1 << 24

// Len returns the number of members.
func (s *Set) Len() int { return s.n }

// word returns the index of the word that holds x, and whether the
// words reach that far.
func (s *Set) word(x uint32) (int, bool) {
	if x < s.base {
		return 0, false
	}
	i := int((x - s.base) >> 6)
	return i, i < len(s.words)
}

// Has reports whether x is a member.
func (s *Set) Has(x uint32) bool {
	i, ok := s.word(x)
	return ok && s.words[i]&(1<<(x&63)) != 0
}

// Add makes x a member.
func (s *Set) Add(x uint32) {
	i, ok := s.word(x)
	if !ok {
		i = s.cover(x)
	}
	if b := uint64(1) << (x & 63); s.words[i]&b == 0 {
		s.words[i] |= b
		s.n++
	}
}

// Delete removes x if it is a member. It never moves the words.
func (s *Set) Delete(x uint32) {
	i, ok := s.word(x)
	if !ok {
		return
	}
	if b := uint64(1) << (x & 63); s.words[i]&b != 0 {
		s.words[i] &^= b
		s.n--
	}
}

// Reserve gives the words room for members up to span apart, so that a
// set whose members never lie further apart allocates nothing as it
// slides.
func (s *Set) Reserve(span int) {
	s.words = slices.Grow(s.words, max(0, span/64+2-len(s.words)))
}

// Clear removes every member and keeps the words' capacity.
func (s *Set) Clear() { s.words, s.n = s.words[:0], 0 }

// First returns the least member, and false when the set is empty.
// With Next it walks the members in ascending order:
//
//	for x, ok := s.First(); ok; x, ok = s.Next(x) { … }
//
// The loop body may add and delete members: a member deleted before the
// walk reaches it is not visited, and one added above x is.
func (s *Set) First() (uint32, bool) { return s.next(0) }

// Next returns the least member above x, and false when there is none.
func (s *Set) Next(x uint32) (uint32, bool) { return s.next(uint64(x) + 1) }

// next returns the least member at or above from, and false when there
// is none.
func (s *Set) next(from uint64) (uint32, bool) {
	base := uint64(s.base)
	from = max(from, base)
	i := (from - base) >> 6
	if i >= uint64(len(s.words)) {
		return 0, false
	}
	w := s.words[i] &^ (uint64(1)<<(from&63) - 1)
	for w == 0 {
		if i++; i >= uint64(len(s.words)) {
			return 0, false
		}
		w = s.words[i]
	}
	return uint32(base + i<<6 + uint64(bits.TrailingZeros64(w))), true
}

// cover makes the words reach x, which lies outside them, and returns
// the index of x's word. It first drops the empty words at either end,
// then lays the members' words out again from the lower of x's word and
// the first member's, in place while the capacity allows.
func (s *Set) cover(x uint32) int {
	lo, hi := 0, len(s.words)
	for lo < hi && s.words[lo] == 0 {
		lo++
	}
	for hi > lo && s.words[hi-1] == 0 {
		hi--
	}
	from := uint64(x) &^ 63
	to := from + 64
	if lo < hi {
		from = min(from, uint64(s.base)+64*uint64(lo))
		to = max(to, uint64(s.base)+64*uint64(hi))
	}
	need := int((to - from) >> 6)
	var w []uint64
	if need <= cap(s.words) {
		w = s.words[:need]
	} else {
		w = make([]uint64, need, max(need, 2*cap(s.words)))
	}
	at := 0
	if lo < hi {
		at = int((uint64(s.base) + 64*uint64(lo) - from) >> 6)
	}
	copy(w[at:], s.words[lo:hi]) // copy moves overlapping words safely
	clear(w[:at])
	clear(w[at+hi-lo:])
	s.base, s.words = uint32(from), w
	return int((uint64(x) - from) >> 6)
}

// MarshalJSON implements json.Marshaler.
func (s Set) MarshalJSON() ([]byte, error) {
	ks := make([]uint32, 0, s.n)
	for x, ok := s.First(); ok; x, ok = s.Next(x) {
		ks = append(ks, x)
	}
	return json.Marshal(ks)
}

// UnmarshalJSON implements json.Unmarshaler. Like Map's, it replaces the
// set and refuses a member listed twice; it also refuses members more
// than maxDecodedSpan apart.
func (s *Set) UnmarshalJSON(b []byte) error {
	var ks []uint32
	if err := json.Unmarshal(b, &ks); err != nil {
		return err
	}
	var t Set
	if len(ks) > 0 {
		lo, hi := slices.Min(ks), slices.Max(ks)
		if hi-lo >= maxDecodedSpan {
			return fmt.Errorf("checkpoint: set members %d and %d are more than %d apart", lo, hi, maxDecodedSpan)
		}
		t.base = lo &^ 63
		t.words = make([]uint64, (hi-t.base)>>6+1)
	}
	for _, k := range ks {
		if t.Has(k) {
			return fmt.Errorf("checkpoint: set member %d listed twice", k)
		}
		t.Add(k)
	}
	*s = t
	return nil
}
