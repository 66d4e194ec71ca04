// Package bitstring implements fixed-length binary strings packed into
// 64-bit words, together with the string algebra used throughout the paper
// "Optimal Message-Passing with Noisy Beeps": logical And/Or/Not/Xor,
// popcount (the paper's 1(s)), Hamming distance, superimposition ∨(S), and
// the d-intersection predicate of Definition 2.
//
// BitStrings are the in-memory representation of beep transcripts and
// codewords: bit i is 1 when a beep occurs (or a codeword has a 1) in
// round/position i.
package bitstring

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// BitString is a fixed-length sequence of bits. The zero value is an empty
// (length-0) string; use New to create one of a given length.
//
// Bits beyond Len() in the final word are always kept zero; every mutating
// operation maintains this invariant so that popcount-style queries can
// operate word-parallel without masking.
type BitString struct {
	n     int
	words []uint64
}

// New returns an all-zeros BitString of length n bits.
// It panics if n is negative.
func New(n int) *BitString {
	if n < 0 {
		panic(fmt.Sprintf("bitstring: negative length %d", n))
	}
	return &BitString{n: n, words: make([]uint64, wordsFor(n))}
}

// Parse builds a BitString from a textual form such as "01011", where the
// leftmost character is bit 0. It returns an error on any character other
// than '0' or '1'.
func Parse(text string) (*BitString, error) {
	s := New(len(text))
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '0':
		case '1':
			s.Set(i)
		default:
			return nil, fmt.Errorf("bitstring: invalid character %q at position %d", text[i], i)
		}
	}
	return s, nil
}

// Len returns the number of bits in s.
func (s *BitString) Len() int { return s.n }

// Get reports whether bit i is set. It panics if i is out of range.
func (s *BitString) Get(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to 1. It panics if i is out of range.
func (s *BitString) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// ClearBit sets bit i to 0. It panics if i is out of range.
func (s *BitString) ClearBit(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetBool sets bit i to v. It panics if i is out of range.
func (s *BitString) SetBool(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.ClearBit(i)
	}
}

// Flip inverts bit i. It panics if i is out of range.
func (s *BitString) Flip(i int) {
	s.check(i)
	s.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Reset sets every bit to 0, retaining the length.
func (s *BitString) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom overwrites s with t's bits. It panics if lengths differ.
func (s *BitString) CopyFrom(t *BitString) {
	s.checkLen(t)
	copy(s.words, t.words)
}

// Ones returns the number of 1-bits in s: the paper's 1(s).
func (s *BitString) Ones() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns an independent copy of s.
func (s *BitString) Clone() *BitString {
	c := &BitString{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and t have the same length and bits.
func (s *BitString) Equal(t *BitString) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// OrInPlace sets s = s ∨ t. It panics if lengths differ.
func (s *BitString) OrInPlace(t *BitString) {
	s.checkLen(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// AndNotCountLimit returns min(1(s ∧ ¬t), limit), early-exiting the word
// sweep once limit is reached — the membership test's "count misses up to
// θ" in one popcount pass. It panics if lengths differ.
func (s *BitString) AndNotCountLimit(t *BitString, limit int) int {
	s.checkLen(t)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w &^ t.words[i])
		if total >= limit {
			return limit
		}
	}
	return total
}

// AndCountLimit returns min(1(s ∧ t), limit), early-exiting the word sweep
// once limit is reached. Callers that only compare the intersection count
// against a threshold d get the exact same verdict from
// AndCountLimit(t, d) >= d at a fraction of the scan cost.
// It panics if lengths differ.
func (s *BitString) AndCountLimit(t *BitString, limit int) int {
	s.checkLen(t)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w & t.words[i])
		if total >= limit {
			return limit
		}
	}
	return total
}

// CountZerosAtLimit returns min(z, limit) where z is the number of the
// given positions at which s reads 0 — the decoder's stage-A probe count,
// early-exited once the rejection threshold is reached. Positions must be
// in range.
func (s *BitString) CountZerosAtLimit(positions []int32, limit int) int {
	zeros := 0
	for _, p := range positions {
		if s.words[p>>6]&(1<<(uint(p)&63)) == 0 {
			zeros++
			if zeros >= limit {
				return limit
			}
		}
	}
	return zeros
}

// AndNotCountPrefixLimit returns min(z, limit) where z is the number of
// positions in [0, prefixBits) with s=1 and t=0 — the decoder's stage-A
// probe count run word-parallel over the probe region instead of
// position by position. prefixBits is clamped to Len().
// It panics if lengths differ.
func (s *BitString) AndNotCountPrefixLimit(t *BitString, prefixBits, limit int) int {
	s.checkLen(t)
	if prefixBits > s.n {
		prefixBits = s.n
	}
	if prefixBits <= 0 {
		return 0
	}
	full := prefixBits / wordBits
	total := 0
	for i := 0; i < full; i++ {
		total += bits.OnesCount64(s.words[i] &^ t.words[i])
		if total >= limit {
			return limit
		}
	}
	if rem := prefixBits % wordBits; rem != 0 {
		tail := uint64(1)<<uint(rem) - 1
		total += bits.OnesCount64(s.words[full] &^ t.words[full] & tail)
		if total >= limit {
			return limit
		}
	}
	return total
}

// OnesRange returns the number of 1-bits in positions [lo, hi) — the
// word-parallel form of a per-position Get loop over a contiguous run
// (the TDMA baseline's per-slot majorities). It panics if the range is
// out of bounds or inverted.
func (s *BitString) OnesRange(lo, hi int) int {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("bitstring: range [%d,%d) out of bounds [0,%d)", lo, hi, s.n))
	}
	if lo == hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if loW == hiW {
		return bits.OnesCount64(s.words[loW] & loMask & hiMask)
	}
	total := bits.OnesCount64(s.words[loW] & loMask)
	for i := loW + 1; i < hiW; i++ {
		total += bits.OnesCount64(s.words[i])
	}
	return total + bits.OnesCount64(s.words[hiW]&hiMask)
}

// SetRange sets every bit in [lo, hi) to 1 — the word-parallel form of a
// per-position Set loop over a contiguous run. It panics if the range is
// out of bounds or inverted.
func (s *BitString) SetRange(lo, hi int) {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("bitstring: range [%d,%d) out of bounds [0,%d)", lo, hi, s.n))
	}
	if lo == hi {
		return
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if loW == hiW {
		s.words[loW] |= loMask & hiMask
		return
	}
	s.words[loW] |= loMask
	for i := loW + 1; i < hiW; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[hiW] |= hiMask
}

// HammingDistance returns d_H(s, t), the number of positions where s and t
// differ. It panics if lengths differ.
func (s *BitString) HammingDistance(t *BitString) int {
	s.checkLen(t)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w ^ t.words[i])
	}
	return total
}

// String renders s as a string of '0'/'1' characters, bit 0 first.
func (s *BitString) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Words exposes the backing words of s for word-parallel batch operations
// (the beep engine's vectorized phase path). The final word's unused high
// bits are guaranteed zero. The returned slice aliases s; callers that
// mutate it must keep those bits zero.
func (s *BitString) Words() []uint64 { return s.words }

func (s *BitString) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *BitString) checkLen(t *BitString) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitstring: length mismatch %d vs %d", s.n, t.n))
	}
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }
