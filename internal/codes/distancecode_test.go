package codes

import (
	"bytes"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/rng"
	"repro/internal/wire"
)

// allOnes returns an n-bit string of 1s: a solo mask that covers every
// position.
func allOnes(n int) *bitstring.BitString {
	s := bitstring.New(n)
	s.SetRange(0, n)
	return s
}

// complement returns ¬s as a new string.
func complement(s *bitstring.BitString) *bitstring.BitString {
	c := allOnes(s.Len())
	for i := 0; i < s.Len(); i++ {
		if s.Get(i) {
			c.ClearBit(i)
		}
	}
	return c
}

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
	allSolo := allOnes(c.Length())
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
	allSolo := allOnes(c.Length())
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
		solo := allOnes(c.Length())
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
	allSolo := allOnes(96)
	for v := uint64(0); v < 256; v += 17 {
		msg := encodeMsg(8, v)
		if got := c.Decode(c.Encode(msg), allSolo); !wire.Equal(got, msg, 8) {
			t.Errorf("round trip of %#x failed", v)
		}
	}
}

func TestRandomDistanceCodeDecodeUnderNoise(t *testing.T) {
	c, _ := NewRandomDistanceCode(8, 96, rng.New(11))
	allSolo := allOnes(96)
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
	solo := allOnes(72)
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

// BenchmarkRepetitionDecode times the production payload decode,
// DecodeCollidedInto, for one member of a decoded set: 32 message bits at
// 15 repetitions in blocks of 36 positions (Δ = 8 at C = 4). The heard
// transcripts are what a listener receives in phase 2: each of 9 members
// beeps a random payload at its codeword's positions, and ε = 0.1 noise
// flips every position independently. The iterations cycle through 64
// such transcripts, so the bits the decode reads are as unpredictable as
// in a run rather than a pattern the branch predictor learns. "quiet"
// passes an all-zero collision bitmap, as DisableSoloFilter does;
// "collided" passes the bitmap of the 9 members' random offsets, so about
// a fifth of the target's positions are skipped.
func BenchmarkRepetitionDecode(b *testing.B) {
	const blockSize, members, transcripts, eps = 36, 9, 64, 0.1
	c, _ := NewRepetitionCode(32, 15, 1)
	w := c.Length()
	r := rng.New(2)
	rows := make([][]int32, members)
	ones, twos := bitstring.New(w*blockSize), bitstring.New(w*blockSize)
	for m := range rows {
		rows[m] = make([]int32, w)
		for j := range rows[m] {
			pos := j*blockSize + r.Intn(blockSize)
			rows[m][j] = int32(pos)
			if ones.Get(pos) {
				twos.Set(pos)
			}
			ones.Set(pos)
		}
	}
	ys := make([]*bitstring.BitString, transcripts)
	msg := make([]byte, 4)
	for k := range ys {
		y := bitstring.New(w * blockSize)
		for _, row := range rows {
			for i := range msg {
				msg[i] = byte(r.Intn(256))
			}
			for j, pos := range row {
				if wire.Bit(msg, c.BitFor(j)) {
					y.Set(int(pos))
				}
			}
		}
		for pos := 0; pos < y.Len(); pos++ {
			if r.Bool(eps) {
				y.Flip(pos)
			}
		}
		ys[k] = y
	}
	out := make([]byte, 4)
	for _, bc := range []struct {
		name     string
		collided *bitstring.BitString
	}{{"quiet", bitstring.New(w * blockSize)}, {"collided", twos}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.DecodeCollidedInto(ys[i%transcripts], bc.collided, rows[i%members], out)
			}
		})
	}
}

func BenchmarkRandomDistanceDecode(b *testing.B) {
	c, _ := NewRandomDistanceCode(10, 120, rng.New(1))
	allSolo := allOnes(120)
	obs := c.Encode(encodeMsg(10, 123))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Decode(obs, allSolo)
	}
}

// TestFallbackBitsMatchesDecodeBranch pins DecodeCollidedInto's fallback
// count to the decoder's branch: a bit counts as fallback iff its
// solo-majority loop sees zero solo positions. Cross-checked by
// re-deriving coverage from the public BitFor table under assorted solo
// masks, each passed as the collision bitmap of identity positions.
func TestFallbackBitsMatchesDecodeBranch(t *testing.T) {
	c, err := NewRepetitionCode(16, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int32, c.Length())
	for j := range identity {
		identity[j] = int32(j)
	}
	masks := map[string]*bitstring.BitString{
		"none": bitstring.New(c.Length()),
		"all":  allOnes(c.Length()),
	}
	sparse := bitstring.New(c.Length())
	for j := 0; j < c.Length(); j += 7 {
		sparse.Set(j)
	}
	masks["sparse"] = sparse
	y := bitstring.New(c.Length())
	out := make([]byte, 2)
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
		if _, _, got := c.DecodeCollidedInto(y, complement(solo), identity, out); got != want {
			t.Errorf("%s: fallback bits = %d, want %d", label, got, want)
		}
	}
	if _, _, got := c.DecodeCollidedInto(y, allOnes(c.Length()), identity, out); got != c.MessageBits() {
		t.Errorf("empty solo: fallback bits = %d, want every bit (%d)", got, c.MessageBits())
	}
	if _, _, got := c.DecodeCollidedInto(y, bitstring.New(c.Length()), identity, out); got != 0 {
		t.Errorf("full solo: fallback bits = %d, want 0", got)
	}
}

// FuzzDecodeCollided pins DecodeCollidedInto to the unfused reference:
// from random positions (one per block), a transcript y and a collision
// bitmap, it derives the W-bit solo mask and the gathered observation;
// DecodeInto on those must give the same bytes, and the skipped and
// fallback counts must be W − solo.Ones() and the number of message bits
// with no solo position.
func FuzzDecodeCollided(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(5), uint8(36), uint8(50), uint8(128))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(2), uint8(255), uint8(0))
	f.Add(uint64(3), uint8(16), uint8(3), uint8(9), uint8(200), uint8(255))
	f.Add(uint64(4), uint8(13), uint8(9), uint8(64), uint8(0), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, msgBits, reps, blockSize, collide, ones uint8) {
		c, err := NewRepetitionCode(1+int(msgBits)%24, 1+int(reps)%15, seed)
		if err != nil {
			t.Fatal(err)
		}
		w, bs := c.Length(), 1+int(blockSize)%80
		r := rng.New(seed ^ 0x5eed)
		positions := make([]int32, w)
		for j := range positions {
			positions[j] = int32(j*bs + r.Intn(bs))
		}
		y, collided := bitstring.New(w*bs), bitstring.New(w*bs)
		for i := 0; i < w*bs; i++ {
			if r.Intn(256) < int(ones) {
				y.Set(i)
			}
			if r.Intn(256) < int(collide) {
				collided.Set(i)
			}
		}
		obs, solo := bitstring.New(w), bitstring.New(w)
		covered := make([]bool, c.MessageBits())
		for j, pos := range positions {
			if y.Get(int(pos)) {
				obs.Set(j)
			}
			if !collided.Get(int(pos)) {
				solo.Set(j)
				covered[c.BitFor(j)] = true
			}
		}
		wantFallbacks := 0
		for _, cov := range covered {
			if !cov {
				wantFallbacks++
			}
		}
		n := (c.MessageBits() + 7) / 8
		want := c.DecodeInto(obs, solo, make([]byte, n))
		out := make([]byte, n)
		for i := range out {
			out[i] = 0xff // stale bytes the decode must clear
		}
		got, skipped, fallbacks := c.DecodeCollidedInto(y, collided, positions, out)
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded %x, DecodeInto %x", got, want)
		}
		if skipped != w-solo.Ones() {
			t.Fatalf("skipped %d positions, want %d", skipped, w-solo.Ones())
		}
		if fallbacks != wantFallbacks {
			t.Fatalf("fallback bits %d, want %d", fallbacks, wantFallbacks)
		}
	})
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
		mask = complement(solo) // all positions
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
