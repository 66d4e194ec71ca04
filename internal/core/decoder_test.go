package core

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstring"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Test conveniences over the scratch-based decoder API: allocate a fresh
// scratch per call so assertions stay independent.

func (d *decoder) membersAlloc(x *bitstring.BitString) []int {
	return d.members(x, nil)
}

// soloMaskFor returns target t's W-bit solo mask within members, read
// off their collision bitmap (t must be a member, as in the runner's
// decode loop).
func (d *decoder) soloMaskFor(t int, members []int) *bitstring.BitString {
	return d.soloMask(t, d.collisions(members, d.newScratch()))
}

// soloMask reads target t's W-bit solo mask off a collision bitmap: block
// j is solo iff the bitmap is 0 at t's position in it.
func (d *decoder) soloMask(t int, collided *bitstring.BitString) *bitstring.BitString {
	solo := bitstring.New(d.p.W())
	for j, pos := range d.code.PositionRow(t) {
		if !collided.Get(int(pos)) {
			solo.Set(j)
		}
	}
	return solo
}

// decodeFor decodes member t's message from y among members, as the
// runner's decode loop does, on a fresh scratch.
func (d *decoder) decodeFor(t int, y *bitstring.BitString, members []int) []byte {
	collided := d.collisions(members, d.newScratch())
	msg, _, _ := d.dist.DecodeCollidedInto(y, collided, d.code.PositionRow(t), make([]byte, d.msgBytes))
	return msg
}

// allOnes returns an n-bit string of 1s.
func allOnes(n int) *bitstring.BitString {
	s := bitstring.New(n)
	s.SetRange(0, n)
	return s
}

func testParams() Params {
	return Params{
		MsgBits:    8,
		K:          5,
		C:          4,
		R:          9,
		M:          40,
		Epsilon:    0.1,
		Assignment: AssignByID,
		Seed:       0x5eed,
	}
}

func TestNewDecoderValidation(t *testing.T) {
	p := testParams()
	p.MsgBits, p.R = 1, 2 // W = 2 < 4
	if _, err := newDecoder(p); err == nil {
		t.Error("W < 4 accepted")
	}
}

// TestMembersCleanChannel: the decoder must recover exactly the
// superimposed codeword set from a noiseless observation.
func TestMembersCleanChannel(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{3, 11, 17, 29}
	x := bitstring.New(p.PhaseLength())
	for _, cw := range members {
		x.OrInPlace(d.encodePhase1(cw))
	}
	got := d.membersAlloc(x)
	if len(got) != len(members) {
		t.Fatalf("decoded %v, want %v", got, members)
	}
	for i := range members {
		if got[i] != members[i] {
			t.Fatalf("decoded %v, want %v", got, members)
		}
	}
}

// TestMembersUnderNoise: flips at rate ε must not change the decoded set.
func TestMembersUnderNoise(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 7, 23}
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		x := bitstring.New(p.PhaseLength())
		for _, cw := range members {
			x.OrInPlace(d.encodePhase1(cw))
		}
		rng.NewFlipSampler(r, p.Epsilon).XorFlipsInto(x.Words(), 0, x.Len())
		got := d.membersAlloc(x)
		if len(got) != len(members) {
			t.Fatalf("trial %d: decoded %v, want %v", trial, got, members)
		}
		for i := range members {
			if got[i] != members[i] {
				t.Fatalf("trial %d: decoded %v, want %v", trial, got, members)
			}
		}
	}
}

// TestMembersEmptyOnSilence: a silent (or pure-noise) channel decodes to
// the empty set.
func TestMembersEmptyOnSilence(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	x := bitstring.New(p.PhaseLength())
	if got := d.membersAlloc(x); len(got) != 0 {
		t.Errorf("silence decoded as %v", got)
	}
	// Pure noise at ε.
	rng.NewFlipSampler(rng.New(4), p.Epsilon).XorFlipsInto(x.Words(), 0, x.Len())
	if got := d.membersAlloc(x); len(got) != 0 {
		t.Errorf("pure noise decoded as %v", got)
	}
}

// TestMembersAdversarialSaturation: an all-ones observation makes every
// codeword look present — the decoder must report all M (a detectable
// jamming signature rather than a silent failure).
func TestMembersAdversarialSaturation(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	x := allOnes(p.PhaseLength())
	if got := d.membersAlloc(x); len(got) != p.M {
		t.Errorf("saturated channel decoded %d members, want all %d", len(got), p.M)
	}
}

// TestSoloMaskMatchesBruteForce: the solo mask must equal a direct
// position-collision computation on materialized codewords.
func TestSoloMaskMatchesBruteForce(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{2, 9, 14, 31, 38}
	for _, target := range members {
		solo := d.soloMaskFor(target, members)
		for j := 0; j < p.W(); j++ {
			collides := false
			for _, s := range members {
				if s != target && d.code.Position(s, j) == d.code.Position(target, j) {
					collides = true
					break
				}
			}
			if solo.Get(j) == collides {
				t.Fatalf("target %d block %d: solo=%v but collides=%v", target, j, solo.Get(j), collides)
			}
		}
	}
}

// TestPhase2RoundTrip: encode CD(cw, msg), superimpose interferers, decode
// with the correct solo mask — the message must survive.
func TestPhase2RoundTrip(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{1, 8, 22, 35}
	msgs := map[int]uint64{1: 0x5a, 8: 0xff, 22: 0x00, 35: 0x81}
	y := bitstring.New(p.PhaseLength())
	for _, cw := range members {
		var w wire.Writer
		w.WriteUint(msgs[cw], 8)
		y.OrInPlace(d.encodePhase2(cw, w.PaddedBytes(p.MsgBits)))
	}
	for _, cw := range members {
		got := d.decodeFor(cw, y, members)
		want := encodeMsg8(msgs[cw])
		if !wire.Equal(got, want, 8) {
			t.Errorf("codeword %d: decoded %x, want %x", cw, got, want)
		}
	}
}

// TestEncodePhase2MatchesWireBit pins the branch-free phase-2 encode to
// its definition: position PositionRow(cw)[j] is 1 iff wire.Bit reads
// message bit BitFor(j) as 1, so bits past the end of a short message
// read 0. The pattern buffer starts dirty, as the runner reuses it.
func TestEncodePhase2MatchesWireBit(t *testing.T) {
	p := testParams()
	p.MsgBits = 20 // three bytes, the last one partly used
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	out := bitstring.New(p.PhaseLength())
	for trial := 0; trial < 50; trial++ {
		cw := r.Intn(p.M)
		msg := make([]byte, r.Intn(d.msgBytes+1)) // 0 to msgBytes bytes
		for i := range msg {
			msg[i] = byte(r.Intn(256))
		}
		want := bitstring.New(p.PhaseLength())
		for j, pos := range d.code.PositionRow(cw) {
			if wire.Bit(msg, d.dist.BitFor(j)) {
				want.Set(int(pos))
			}
		}
		out.SetRange(0, out.Len())
		d.encodePhase2Into(cw, msg, out)
		if !out.Equal(want) {
			t.Fatalf("codeword %d, %d-byte message %x: pattern differs from the wire.Bit encoding", cw, len(msg), msg)
		}
	}
}

// TestPhase2RoundTripUnderNoise adds ε channel flips on top of the
// interference.
func TestPhase2RoundTripUnderNoise(t *testing.T) {
	p := testParams()
	p.R = 15 // extra redundancy for the noisy variant
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{4, 19, 33}
	msgs := map[int]uint64{4: 0xc3, 19: 0x2d, 33: 0x70}
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		y := bitstring.New(p.PhaseLength())
		for _, cw := range members {
			var w wire.Writer
			w.WriteUint(msgs[cw], 8)
			y.OrInPlace(d.encodePhase2(cw, w.PaddedBytes(p.MsgBits)))
		}
		rng.NewFlipSampler(r, p.Epsilon).XorFlipsInto(y.Words(), 0, y.Len())
		for _, cw := range members {
			got := d.decodeFor(cw, y, members)
			if !wire.Equal(got, encodeMsg8(msgs[cw]), 8) {
				t.Fatalf("trial %d codeword %d: decoded %x, want %x", trial, cw, got, msgs[cw])
			}
		}
	}
}

func encodeMsg8(v uint64) []byte {
	var w wire.Writer
	w.WriteUint(v, 8)
	return w.PaddedBytes(8)
}

// TestPropertyDecoderPipelineFuzz: random small parameterizations and
// member sets must round-trip through encode → superimpose → decode on a
// clean channel — for every member whose each message bit keeps at least
// one solo (collision-free) repetition block. That coverage is the §4
// precondition for exact decoding; the tiny random parameterizations
// here can violate it (e.g. R=5 blocks per bit all collided among K=4
// members), and the decoder then documents best-effort fallback
// thresholds rather than exactness, so those members are skipped.
func TestPropertyDecoderPipelineFuzz(t *testing.T) {
	f := func(seed uint64, kRaw, cRaw, rRaw, pick uint8) bool {
		p := Params{
			MsgBits:    4 + int(seed%5),
			K:          3 + int(kRaw%4),
			C:          3 + int(cRaw%4),
			R:          5 + 2*int(rRaw%4),
			M:          24,
			Epsilon:    0,
			Assignment: AssignByID,
			Seed:       seed,
		}
		d, err := newDecoder(p)
		if err != nil {
			return false
		}
		// Pick up to K distinct member codewords.
		r := rng.New(seed)
		count := 1 + int(pick)%p.K
		members := r.SampleDistinct(p.M, count)
		sortInts(members)
		msgs := make(map[int][]byte, count)
		y := bitstring.New(p.PhaseLength())
		x := bitstring.New(p.PhaseLength())
		for _, cw := range members {
			var w wire.Writer
			w.WriteUint(r.Uint64()&(1<<uint(p.MsgBits)-1), p.MsgBits)
			m := w.PaddedBytes(p.MsgBits)
			msgs[cw] = m
			x.OrInPlace(d.encodePhase1(cw))
			y.OrInPlace(d.encodePhase2(cw, m))
		}
		got := d.membersAlloc(x)
		if len(got) != len(members) {
			return false
		}
		for i := range members {
			if got[i] != members[i] {
				return false
			}
		}
		for _, cw := range members {
			solo := d.soloMaskFor(cw, got)
			covered := make([]bool, p.MsgBits)
			for j := 0; j < d.dist.Length(); j++ {
				if solo.Get(j) {
					covered[d.dist.BitFor(j)] = true
				}
			}
			full := true
			for _, c := range covered {
				full = full && c
			}
			if !full {
				continue // no exactness guarantee for this member
			}
			if !wire.Equal(d.decodeFor(cw, y, got), msgs[cw], p.MsgBits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
