package codes

import (
	"testing"

	"repro/internal/bitstring"
	"repro/internal/rng"
	"repro/internal/wire"
)

func encodeMsg(bits int, value uint64) []byte {
	var w wire.Writer
	w.WriteUint(value, bits)
	return w.PaddedBytes(bits)
}

func TestRepetitionCodeShape(t *testing.T) {
	c, err := NewRepetitionCode(16, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.MessageBits() != 16 || c.Length() != 144 || c.Reps() != 9 {
		t.Fatalf("shape: bits=%d len=%d reps=%d", c.MessageBits(), c.Length(), c.Reps())
	}
}

func TestRepetitionCodeValidation(t *testing.T) {
	if _, err := NewRepetitionCode(0, 3, 1); err == nil {
		t.Error("msgBits=0 did not fail")
	}
	if _, err := NewRepetitionCode(4, 0, 1); err == nil {
		t.Error("reps=0 did not fail")
	}
}

func TestRepetitionEncodeWeight(t *testing.T) {
	c, _ := NewRepetitionCode(8, 5, 2)
	// Message with 3 ones -> codeword with exactly 15 ones.
	msg := encodeMsg(8, 0b10110000)
	if got := c.Encode(msg).Ones(); got != 15 {
		t.Errorf("codeword weight = %d, want 15", got)
	}
	if got := c.Encode(encodeMsg(8, 0)).Ones(); got != 0 {
		t.Errorf("all-zero message codeword weight = %d", got)
	}
}

func TestRepetitionRoundTripClean(t *testing.T) {
	c, _ := NewRepetitionCode(12, 7, 3)
	allSolo := bitstring.New(c.Length()).Not()
	for _, v := range []uint64{0, 1, 0xfff, 0xa5a, 0x0f0} {
		msg := encodeMsg(12, v)
		got := c.Decode(c.Encode(msg), allSolo)
		if !wire.Equal(got, msg, 12) {
			t.Errorf("round trip of %#x failed: got %v", v, got)
		}
	}
}

func TestRepetitionDecodeUnderNoise(t *testing.T) {
	// Flip 10% of positions uniformly; majority over 15 reps must recover.
	c, _ := NewRepetitionCode(16, 15, 4)
	allSolo := bitstring.New(c.Length()).Not()
	r := rng.New(5)
	failures := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v := r.Uint64() & 0xffff
		msg := encodeMsg(16, v)
		obs := c.Encode(msg)
		rng.NewFlipSampler(r, 0.10).XorFlipsInto(obs.Words(), 0, c.Length())
		if !wire.Equal(c.Decode(obs, allSolo), msg, 16) {
			failures++
		}
	}
	if failures > 2 {
		t.Errorf("%d/%d decode failures at ε=0.10, want <= 2", failures, trials)
	}
}

func TestRepetitionDecodeWithOneSidedCorruption(t *testing.T) {
	// Non-solo positions are forced to 1 (collision semantics: another
	// beeping node can only add energy). Solo-restricted decoding must
	// ignore them entirely.
	c, _ := NewRepetitionCode(8, 9, 6)
	r := rng.New(7)
	for trial := 0; trial < 100; trial++ {
		v := r.Uint64() & 0xff
		msg := encodeMsg(8, v)
		obs := c.Encode(msg)
		solo := bitstring.New(c.Length()).Not()
		// Corrupt a third of positions: set to 1, mark non-solo.
		for i := 0; i < c.Length(); i += 3 {
			obs.Set(i)
			solo.ClearBit(i)
		}
		if got := c.Decode(obs, solo); !wire.Equal(got, msg, 8) {
			t.Fatalf("trial %d: decode with one-sided corruption failed for %#x", trial, v)
		}
	}
}

func TestRepetitionFallbackWhenNoSolo(t *testing.T) {
	// With no solo positions at all, the biased fallback must still decode
	// a clean observation (ones fraction is 0 or 1 per bit).
	c, _ := NewRepetitionCode(8, 9, 8)
	noSolo := bitstring.New(c.Length())
	msg := encodeMsg(8, 0xc3)
	if got := c.Decode(c.Encode(msg), noSolo); !wire.Equal(got, msg, 8) {
		t.Errorf("fallback decode failed: got %v", got)
	}
}

// TestDecodeIntoMatchesDecode: DecodeInto must fully overwrite its buffer
// and agree with Decode on noisy observations.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	c, err := NewRepetitionCode(12, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	buf := make([]byte, (c.MessageBits()+7)/8)
	for trial := 0; trial < 50; trial++ {
		obs := bitstring.New(c.Length())
		solo := bitstring.New(c.Length())
		for j := 0; j < c.Length(); j++ {
			if r.Bool(0.4) {
				obs.Set(j)
			}
			if r.Bool(0.6) {
				solo.Set(j)
			}
		}
		for i := range buf {
			buf[i] = 0xff // stale garbage DecodeInto must clear
		}
		want := c.Decode(obs, solo)
		got := c.DecodeInto(obs, solo, buf)
		if !wire.Equal(got, want, c.MessageBits()) {
			t.Fatalf("trial %d: DecodeInto %x, Decode %x", trial, got, want)
		}
	}
}

func TestRandomDistanceCodeMinDistance(t *testing.T) {
	// Lemma 6 with δ = 1/3, c_δ = 12(1-2δ)^{-2} = 108: length 108a gives
	// min distance >= b/3 w.h.p. Verified exhaustively for a = 8.
	const a = 8
	length := 108 * a
	c, err := NewRandomDistanceCode(a, length, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	min := c.MinDistance()
	if min < length/3 {
		t.Errorf("min distance = %d < δb = %d (Lemma 6 violated)", min, length/3)
	}
}

func TestRandomDistanceCodeValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewRandomDistanceCode(0, 10, r); err == nil {
		t.Error("msgBits=0 did not fail")
	}
	if _, err := NewRandomDistanceCode(21, 10, r); err == nil {
		t.Error("msgBits=21 did not fail (cap)")
	}
	if _, err := NewRandomDistanceCode(4, 0, r); err == nil {
		t.Error("length=0 did not fail")
	}
}

func TestRandomDistanceCodeRoundTrip(t *testing.T) {
	c, _ := NewRandomDistanceCode(8, 96, rng.New(10))
	allSolo := bitstring.New(96).Not()
	for v := uint64(0); v < 256; v += 17 {
		msg := encodeMsg(8, v)
		if got := c.Decode(c.Encode(msg), allSolo); !wire.Equal(got, msg, 8) {
			t.Errorf("round trip of %#x failed", v)
		}
	}
}

func TestRandomDistanceCodeDecodeUnderNoise(t *testing.T) {
	c, _ := NewRandomDistanceCode(8, 96, rng.New(11))
	allSolo := bitstring.New(96).Not()
	r := rng.New(12)
	failures := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v := r.Uint64() & 0xff
		msg := encodeMsg(8, v)
		obs := c.Encode(msg)
		rng.NewFlipSampler(r, 0.15).XorFlipsInto(obs.Words(), 0, 96)
		if !wire.Equal(c.Decode(obs, allSolo), msg, 8) {
			failures++
		}
	}
	if failures > 2 {
		t.Errorf("%d/%d min-distance decode failures at ε=0.15", failures, trials)
	}
}

func TestRandomDistanceCodeSoloRestriction(t *testing.T) {
	// Distance restricted to solo positions: corrupting only non-solo
	// positions must never change the decoding.
	c, _ := NewRandomDistanceCode(6, 72, rng.New(13))
	msg := encodeMsg(6, 0x2a)
	obs := c.Encode(msg)
	solo := bitstring.New(72).Not()
	for i := 0; i < 72; i += 2 {
		obs.Flip(i)
		solo.ClearBit(i)
	}
	if got := c.Decode(obs, solo); !wire.Equal(got, msg, 6) {
		t.Errorf("solo-restricted decode failed: got %v", got)
	}
}

func TestRandomDistanceCodeNoSoloFallsBackToAll(t *testing.T) {
	c, _ := NewRandomDistanceCode(6, 72, rng.New(14))
	msg := encodeMsg(6, 0x15)
	obs := c.Encode(msg)
	noSolo := bitstring.New(72)
	if got := c.Decode(obs, noSolo); !wire.Equal(got, msg, 6) {
		t.Errorf("no-solo fallback decode failed: got %v", got)
	}
}

func BenchmarkRepetitionDecode(b *testing.B) {
	c, _ := NewRepetitionCode(32, 15, 1)
	allSolo := bitstring.New(c.Length()).Not()
	obs := c.Encode(encodeMsg(32, 0xdeadbeef))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Decode(obs, allSolo)
	}
}

func BenchmarkRandomDistanceDecode(b *testing.B) {
	c, _ := NewRandomDistanceCode(10, 120, rng.New(1))
	allSolo := bitstring.New(120).Not()
	obs := c.Encode(encodeMsg(10, 123))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Decode(obs, allSolo)
	}
}

// TestFallbackBitsMatchesDecodeBranch pins FallbackBits to the decoder:
// a bit counts as fallback iff DecodeInto's solo-majority loop sees
// zero covered positions for it. Cross-checked by re-deriving coverage
// from the public BitFor table under assorted solo masks.
func TestFallbackBitsMatchesDecodeBranch(t *testing.T) {
	c, err := NewRepetitionCode(16, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	masks := map[string]*bitstring.BitString{
		"none": bitstring.New(c.Length()),
		"all":  bitstring.New(c.Length()).Not(),
	}
	sparse := bitstring.New(c.Length())
	for j := 0; j < c.Length(); j += 7 {
		sparse.Set(j)
	}
	masks["sparse"] = sparse
	for label, solo := range masks {
		covered := make([]bool, c.MessageBits())
		for j := 0; j < c.Length(); j++ {
			if solo.Get(j) {
				covered[c.BitFor(j)] = true
			}
		}
		want := 0
		for _, cov := range covered {
			if !cov {
				want++
			}
		}
		if got := c.FallbackBits(solo); got != want {
			t.Errorf("%s: FallbackBits = %d, want %d", label, got, want)
		}
	}
	if got := c.FallbackBits(bitstring.New(c.Length())); got != c.MessageBits() {
		t.Errorf("empty solo: FallbackBits = %d, want every bit (%d)", got, c.MessageBits())
	}
	if got := c.FallbackBits(bitstring.New(c.Length()).Not()); got != 0 {
		t.Errorf("full solo: FallbackBits = %d, want 0", got)
	}
}

// MessageBits returns the message width.
func (c *RepetitionCode) MessageBits() int { return c.msgBits }

// Reps returns the number of positions per message bit.
func (c *RepetitionCode) Reps() int { return c.reps }

// Encode maps msg to its codeword.
func (c *RepetitionCode) Encode(msg []byte) *bitstring.BitString {
	out := bitstring.New(c.Length())
	for pos := range c.bitFor {
		if wire.Bit(msg, int(c.bitFor[pos])) {
			out.Set(pos)
		}
	}
	return out
}

// Decode is DecodeInto with a freshly allocated message buffer.
func (c *RepetitionCode) Decode(obs, solo *bitstring.BitString) []byte {
	return c.DecodeInto(obs, solo, make([]byte, (c.msgBits+7)/8))
}

// MessageBits returns a.
func (c *RandomDistanceCode) MessageBits() int { return c.msgBits }

// Encode maps msg to its codeword.
func (c *RandomDistanceCode) Encode(msg []byte) *bitstring.BitString {
	return c.codewords[c.index(msg)].Clone()
}

// Decode returns the message whose codeword minimizes Hamming distance to
// obs over solo positions (ties broken toward the smaller message). If no
// position is solo, the distance is taken over all positions.
func (c *RandomDistanceCode) Decode(obs, solo *bitstring.BitString) []byte {
	mask := solo
	if solo.Ones() == 0 {
		mask = solo.Not() // all positions
	}
	best, bestDist := 0, c.length+1
	for i, cw := range c.codewords {
		// cw ⊕ obs, then its popcount under mask.
		x := cw.Clone()
		xw := x.Words()
		for j, w := range obs.Words() {
			xw[j] ^= w
		}
		d := x.AndCountLimit(mask, c.length+1)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	out := make([]byte, (c.msgBits+7)/8)
	for bit := 0; bit < c.msgBits; bit++ {
		if best&(1<<uint(bit)) != 0 {
			wire.SetBit(out, bit, true)
		}
	}
	return out
}

func (c *RandomDistanceCode) index(msg []byte) int {
	idx := 0
	for bit := 0; bit < c.msgBits; bit++ {
		if wire.Bit(msg, bit) {
			idx |= 1 << uint(bit)
		}
	}
	return idx
}
