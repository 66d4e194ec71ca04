package codes

import (
	"fmt"

	"repro/internal/bitstring"
	"repro/internal/rng"
	"repro/internal/wire"
)

// RepetitionCode is the pipeline's practical distance code (substitution
// #4 in DESIGN.md): each message bit is carried by Reps positions assigned
// via a fixed pseudorandom permutation, and decoded by per-bit majority
// over solo positions. Distinct messages differ in at least Reps positions.
type RepetitionCode struct {
	msgBits int
	reps    int
	bitFor  []int32 // position -> message bit index
	byBit   [][]int32
	// fallbackNum/fallbackDen: when a bit has no solo positions, declare 1
	// only if ones > (num/den)·count over all its positions. The threshold
	// is above 1/2 because non-solo interference is one-sided (a colliding
	// beep can only turn a 0 into a 1, never the reverse).
	fallbackNum, fallbackDen int
}

// NewRepetitionCode builds a repetition distance code with msgBits message
// bits and reps positions per bit, using seed for the position permutation.
func NewRepetitionCode(msgBits, reps int, seed uint64) (*RepetitionCode, error) {
	if msgBits <= 0 || reps <= 0 {
		return nil, fmt.Errorf("codes: invalid repetition code (msgBits=%d reps=%d)", msgBits, reps)
	}
	length := msgBits * reps
	perm := rng.New(seed).Perm(length)
	c := &RepetitionCode{
		msgBits:     msgBits,
		reps:        reps,
		bitFor:      make([]int32, length),
		byBit:       make([][]int32, msgBits),
		fallbackNum: 7,
		fallbackDen: 10,
	}
	for pos, p := range perm {
		bit := int32(p % msgBits)
		c.bitFor[pos] = bit
		c.byBit[bit] = append(c.byBit[bit], int32(pos))
	}
	return c, nil
}

// Length returns msgBits·reps.
func (c *RepetitionCode) Length() int { return c.msgBits * c.reps }

// BitFor returns the message bit index carried by codeword position pos —
// the permutation table callers use to scatter an encoding without
// materializing the intermediate codeword.
func (c *RepetitionCode) BitFor(pos int) int { return int(c.bitFor[pos]) }

// DecodeInto recovers the message from obs, one observed bit per codeword
// position, bit by bit: majority over the solo positions (those the §4
// analysis guarantees carry only the sender's bit plus channel noise),
// falling back to a one-sided-biased threshold over all positions for
// bits with no solo coverage. It writes into out, which must hold
// ⌈MessageBits/8⌉ bytes; out is fully overwritten and returned. It is the
// unfused reference that DecodeCollidedInto is pinned against.
func (c *RepetitionCode) DecodeInto(obs, solo *bitstring.BitString, out []byte) []byte {
	out = out[:(c.msgBits+7)/8]
	for i := range out {
		out[i] = 0
	}
	for bit := 0; bit < c.msgBits; bit++ {
		ones, zeros := 0, 0
		for _, pos := range c.byBit[bit] {
			if !solo.Get(int(pos)) {
				continue
			}
			if obs.Get(int(pos)) {
				ones++
			} else {
				zeros++
			}
		}
		var value bool
		if ones+zeros > 0 {
			value = ones > zeros
		} else {
			// No solo position for this bit: use every position with a
			// threshold biased against collision-induced false 1s.
			total := 0
			for _, pos := range c.byBit[bit] {
				total++
				if obs.Get(int(pos)) {
					ones++
				}
			}
			value = ones*c.fallbackDen > c.fallbackNum*total
		}
		if value {
			wire.SetBit(out, bit, true)
		}
	}
	return out
}

// DecodeCollidedInto is DecodeInto fused with the ỹ gather and with the
// solo mask's derivation: codeword position j is transcript bit
// positions[j] of y, and it is solo unless collided has that bit set —
// another codeword shares it. Each message bit is the majority over its
// solo positions, or the one-sided fallback threshold over all its
// positions when none is solo. It writes into out, which must hold
// ⌈MessageBits/8⌉ bytes, and returns it with the number of positions it
// skipped as collided and the number of bits it decided by the fallback.
// The message is DecodeInto's on the gathered observation with solo mask
// {j : collided[positions[j]] = 0}. positions must hold Length()
// transcript indices below the length of y and collided, which must be
// equal.
//
// The heard bits are coin flips to the branch predictor, so one pass over
// a bit's positions tallies with shifts and adds alone: its solo
// positions, the ones among them, and the ones among all of them — the
// majority's and the fallback's inputs at once.
func (c *RepetitionCode) DecodeCollidedInto(y, collided *bitstring.BitString, positions []int32, out []byte) (msg []byte, skipped, fallbacks int) {
	out = out[:(c.msgBits+7)/8]
	clear(out)
	colw := collided.Words()
	yw := y.Words()[:len(colw)]
	for bit, row := range c.byBit {
		var solo, ones, all int
		for _, j := range row {
			p := positions[j]
			w, sh := p>>6, uint(p)&63
			sb := int(^colw[w] >> sh & 1)
			yb := int(yw[w] >> sh & 1)
			solo += sb
			ones += yb & sb
			all += yb
		}
		skipped += len(row) - solo
		var value bool
		if solo > 0 {
			value = 2*ones > solo // ones > zeros
		} else {
			// No solo position for this bit: use every position with the
			// one-sided fallback threshold (see DecodeInto).
			fallbacks++
			value = all*c.fallbackDen > c.fallbackNum*len(row)
		}
		if value {
			wire.SetBit(out, bit, true)
		}
	}
	return out, skipped, fallbacks
}

// maxRandomCodeBits caps the message space of RandomDistanceCode; its
// storage is exponential in the message width by design (one codeword per
// message, as the paper's brute-force decoding needs).
const maxRandomCodeBits = 20

// RandomDistanceCode is Lemma 6's construction: 2^a codewords of length b
// with i.i.d. uniform bits, whose minimum distance experiment T2 measures.
// Message spaces are capped at 2^20.
type RandomDistanceCode struct {
	msgBits   int
	length    int
	codewords []*bitstring.BitString
}

// NewRandomDistanceCode draws a random (msgBits, ·)-distance code of the
// given length from stream r.
func NewRandomDistanceCode(msgBits, length int, r *rng.Stream) (*RandomDistanceCode, error) {
	if msgBits <= 0 || msgBits > maxRandomCodeBits {
		return nil, fmt.Errorf("codes: random distance code msgBits=%d outside (0,%d]", msgBits, maxRandomCodeBits)
	}
	if length <= 0 {
		return nil, fmt.Errorf("codes: random distance code length=%d", length)
	}
	m := 1 << uint(msgBits)
	c := &RandomDistanceCode{msgBits: msgBits, length: length, codewords: make([]*bitstring.BitString, m)}
	for i := range c.codewords {
		s := bitstring.New(length)
		for j := 0; j < length; j++ {
			if r.Bool(0.5) {
				s.Set(j)
			}
		}
		c.codewords[i] = s
	}
	return c, nil
}

// Length returns b.
func (c *RandomDistanceCode) Length() int { return c.length }

// MinDistance computes the exact minimum pairwise Hamming distance of the
// code, the quantity Lemma 6 lower-bounds by δb. It is quadratic in the
// codebook size.
func (c *RandomDistanceCode) MinDistance() int {
	min := c.length + 1
	for i := 0; i < len(c.codewords); i++ {
		for j := i + 1; j < len(c.codewords); j++ {
			if d := c.codewords[i].HammingDistance(c.codewords[j]); d < min {
				min = d
			}
		}
	}
	return min
}
