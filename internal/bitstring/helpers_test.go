package bitstring

import (
	"fmt"
	"math/bits"
)

// The helpers below are the allocating and scalar forms of the word
// kernels in bitstring.go, which these tests use as references and
// fixtures; no production code calls them.

// Zeros returns the number of 0-bits in s.
func (s *BitString) Zeros() int { return s.n - s.Ones() }

// And returns the bitwise AND s ∧ t as a new BitString.
// It panics if lengths differ.
func (s *BitString) And(t *BitString) *BitString {
	s.checkLen(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Or returns the bitwise OR s ∨ t as a new BitString.
// It panics if lengths differ.
func (s *BitString) Or(t *BitString) *BitString {
	s.checkLen(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] | t.words[i]
	}
	return r
}

// Xor returns the bitwise XOR s ⊕ t as a new BitString.
// It panics if lengths differ.
func (s *BitString) Xor(t *BitString) *BitString {
	s.checkLen(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] ^ t.words[i]
	}
	return r
}

// XorInPlace sets s = s ⊕ t. It panics if lengths differ.
func (s *BitString) XorInPlace(t *BitString) {
	s.checkLen(t)
	for i := range s.words {
		s.words[i] ^= t.words[i]
	}
}

// AndCount returns 1(s ∧ t) without allocating. It panics if lengths differ.
func (s *BitString) AndCount(t *BitString) int {
	s.checkLen(t)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w & t.words[i])
	}
	return total
}

// AndNotCount returns 1(s ∧ ¬t) without allocating: the number of positions
// where s has a 1 and t has a 0. This is the workhorse of the §4 membership
// test (codeword vs. complement of the heard transcript).
// It panics if lengths differ.
func (s *BitString) AndNotCount(t *BitString) int {
	s.checkLen(t)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w &^ t.words[i])
	}
	return total
}

// GatherInto writes into dst the bits of s at the given positions:
// dst bit j becomes s bit positions[j]. This is the decoder's ỹ gather —
// reading a codeword's W positions out of a length-b transcript — fused
// into one table-driven pass with no allocation. dst must have exactly
// len(positions) bits; positions must be in range.
func (s *BitString) GatherInto(dst *BitString, positions []int32) {
	if dst.n != len(positions) {
		panic(fmt.Sprintf("bitstring: gather into %d bits from %d positions", dst.n, len(positions)))
	}
	dst.Reset()
	for j, p := range positions {
		if s.words[p>>6]&(1<<(uint(p)&63)) != 0 {
			dst.words[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// AnyRange reports whether any bit in [lo, hi) is 1 — OnesRange with an
// early exit, the span-occupancy probe of the sparse engines' dirty-word
// masks. It panics if the range is out of bounds or inverted.
func (s *BitString) AnyRange(lo, hi int) bool {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("bitstring: range [%d,%d) out of bounds [0,%d)", lo, hi, s.n))
	}
	if lo == hi {
		return false
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if loW == hiW {
		return s.words[loW]&loMask&hiMask != 0
	}
	if s.words[loW]&loMask != 0 {
		return true
	}
	for i := loW + 1; i < hiW; i++ {
		if s.words[i] != 0 {
			return true
		}
	}
	return s.words[hiW]&hiMask != 0
}

// Intersects reports whether s d-intersects t per Definition 2:
// 1(s ∧ t) ≥ d. It panics if lengths differ.
func (s *BitString) Intersects(t *BitString, d int) bool {
	return s.AndCount(t) >= d
}

// OnesPositions returns the sorted positions of all 1-bits.
func (s *BitString) OnesPositions() []int {
	out := make([]int, 0, s.Ones())
	for wi, w := range s.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+tz)
			w &= w - 1
		}
	}
	return out
}

// OnePosition returns the position of the i-th 1-bit (0-indexed), matching
// the paper's Notation 7 ("1_i(s)" with 1-indexing shifted down by one).
// The second return value is false if s has at most i ones (the paper's
// Null case).
func (s *BitString) OnePosition(i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	seen := 0
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if seen+c <= i {
			seen += c
			continue
		}
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if seen == i {
				return wi*wordBits + tz, true
			}
			seen++
			w &= w - 1
		}
	}
	return 0, false
}

// MaskTail zeroes any bits beyond Len() in the final word, restoring the
// representation invariant after direct Words() mutation.
func (s *BitString) MaskTail() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// SetAll sets every bit to 1, retaining the length.
func (s *BitString) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.MaskTail()
}

// Not returns the bitwise complement ¬s as a new BitString.
func (s *BitString) Not() *BitString {
	r := New(s.n)
	for i := range s.words {
		r.words[i] = ^s.words[i]
	}
	r.MaskTail()
	return r
}

// Superimpose returns ∨(S), the bitwise OR of all strings in set, matching
// the paper's §1.5 shorthand. All strings must share one length; it panics
// otherwise. Superimpose of an empty set returns nil.
func Superimpose(set []*BitString) *BitString {
	if len(set) == 0 {
		return nil
	}
	r := set[0].Clone()
	for _, s := range set[1:] {
		r.OrInPlace(s)
	}
	return r
}
