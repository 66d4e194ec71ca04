package core

// The naive reference decoder: the pre-optimization §4 decoding logic,
// kept verbatim as executable documentation. It derives every codeword
// position from the PRG definition (refOffset) and
// materializes observations bit by bit, so it shares none of the
// optimized path's tables, masks, or scratch. The property tests below
// pit the two against each other across randomized parameterizations —
// the PR's "bit-identical outputs" acceptance gate.

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

// refOffset recomputes codeword cw's offset in block j from the PRG
// definition the decoder's code is built on.
func refOffset(d *decoder, cw, j int) int {
	seed := rng.Mix(d.p.Seed, 0xc0de)
	return int(rng.Mix(seed, uint64(cw), uint64(j)) % uint64(d.p.BlockSize()))
}

// refPosition recomputes Position(cw, j) from the hash definition.
func refPosition(d *decoder, cw, j int) int {
	return j*d.p.BlockSize() + refOffset(d, cw, j)
}

// refMembers is the pre-refactor members loop: stage-A prefix probes,
// then per-position misses counted against θ with early exit.
func refMembers(d *decoder, x *bitstring.BitString) []int {
	theta := d.p.MembershipThreshold()
	var out []int
	for cw := 0; cw < d.p.M; cw++ {
		misses := 0
		for j := 0; j < d.stageAProbes; j++ {
			if !x.Get(refPosition(d, cw, j)) {
				misses++
			}
		}
		if misses >= d.stageAThresh {
			continue
		}
		misses = 0
		for j := 0; j < d.p.W(); j++ {
			if !x.Get(refPosition(d, cw, j)) {
				misses++
				if misses >= theta {
					break
				}
			}
		}
		if misses < theta {
			out = append(out, cw)
		}
	}
	return out
}

// refSoloMask is the pre-refactor per-target solo mask: a full pairwise
// offset scan over the member set.
func refSoloMask(d *decoder, t int, members []int) *bitstring.BitString {
	w := d.p.W()
	solo := allOnes(w)
	for _, s := range members {
		if s == t {
			continue
		}
		for j := 0; j < w; j++ {
			if refOffset(d, s, j) == refOffset(d, t, j) {
				solo.ClearBit(j)
			}
		}
	}
	return solo
}

// refFallbackBits counts the message bits with no position in solo: the
// bits the distance decoder resolves by its fallback threshold.
func refFallbackBits(d *decoder, solo *bitstring.BitString) int {
	covered := make([]bool, d.p.MsgBits)
	for j := 0; j < d.p.W(); j++ {
		if solo.Get(j) {
			covered[d.dist.BitFor(j)] = true
		}
	}
	n := 0
	for _, c := range covered {
		if !c {
			n++
		}
	}
	return n
}

// refDecodeMessage is the pre-refactor phase-2 decode: a bit-by-bit ỹ
// gather followed by the allocating distance-code decoder.
func refDecodeMessage(d *decoder, t int, y, solo *bitstring.BitString) []byte {
	w := d.p.W()
	obs := bitstring.New(w)
	for j := 0; j < w; j++ {
		if y.Get(refPosition(d, t, j)) {
			obs.Set(j)
		}
	}
	return d.dist.DecodeInto(obs, solo, make([]byte, d.msgBytes))
}

// randomDecoderParams draws a small but varied parameterization; M swings
// from "a handful" to "much larger than a block".
func randomDecoderParams(r *rng.Stream) Params {
	p := Params{
		MsgBits:    4 + r.Intn(6),
		K:          3 + r.Intn(5),
		C:          2 + r.Intn(4),
		R:          5 + 2*r.Intn(5),
		M:          2 + r.Intn(96),
		Epsilon:    float64(r.Intn(4)) * 0.08,
		Assignment: AssignRandom,
		Seed:       r.Uint64(),
	}
	if r.Bool(0.5) {
		p.Assignment = AssignByID
	}
	return p
}

// TestPropertyOptimizedMatchesNaive: on arbitrary (not even codeword-
// shaped) noisy observations, the optimized decoder must reproduce the
// naive reference bit for bit: same member set, same solo masks (read off
// the collision bitmap), same decoded messages, and decode counts that
// match the reference solo mask (positions skipped, fallback bits).
func TestPropertyOptimizedMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := randomDecoderParams(r)
		d, err := newDecoder(p)
		if err != nil {
			return true // invalid draw; skip
		}

		// Observations: superimpose a random member set, then corrupt at ε
		// (plus occasional pure-garbage x to stress the filters).
		count := 1 + r.Intn(p.K)
		if count > p.M {
			count = p.M
		}
		trueMembers := r.SampleDistinct(p.M, count)
		x := bitstring.New(p.PhaseLength())
		y := bitstring.New(p.PhaseLength())
		for _, cw := range trueMembers {
			x.OrInPlace(d.code.Mask(cw))
			msg := make([]byte, d.msgBytes)
			for b := range msg {
				msg[b] = byte(r.Intn(256))
			}
			y.OrInPlace(d.encodePhase2(cw, msg))
		}
		for _, s := range []*bitstring.BitString{x, y} {
			rng.NewFlipSampler(r, 0.02+p.Epsilon).XorFlipsInto(s.Words(), 0, s.Len())
		}

		members := d.members(x, nil)
		wantMembers := refMembers(d, x)
		if !equalInts(members, wantMembers) {
			t.Logf("seed %d: members %v, want %v", seed, members, wantMembers)
			return false
		}
		if len(members) == 0 {
			return true
		}
		sc := d.newScratch()
		// Dirty the scratch with an unrelated member set first: production
		// reuses one scratch per shard across all nodes and rounds, so the
		// bitmap must be immune to any prior call's residue.
		prior := r.SampleDistinct(p.M, 1+r.Intn(min(p.K, p.M)))
		d.collisions(prior, sc)
		collided := d.collisions(members, sc)
		out := make([]byte, d.msgBytes)
		for _, cw := range members {
			wantSolo := refSoloMask(d, cw, members)
			if !d.soloMask(cw, collided).Equal(wantSolo) {
				t.Logf("seed %d: solo mask of %d differs", seed, cw)
				return false
			}
			got, skipped, fallbacks := d.dist.DecodeCollidedInto(y, collided, d.code.PositionRow(cw), out)
			want := refDecodeMessage(d, cw, y, wantSolo)
			if len(got) != len(want) {
				return false
			}
			for b := range got {
				if got[b] != want[b] {
					t.Logf("seed %d: message of %d decodes %x, want %x", seed, cw, got, want)
					return false
				}
			}
			if skipped != p.W()-wantSolo.Ones() || fallbacks != refFallbackBits(d, wantSolo) {
				t.Logf("seed %d: member %d skipped %d positions and fell back on %d bits, want %d and %d",
					seed, cw, skipped, fallbacks, p.W()-wantSolo.Ones(), refFallbackBits(d, wantSolo))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestScratchReuseIsStateless: decoding a saturated observation and then
// a small one on the same scratch must give the same answers as a fresh
// scratch — no state may leak between decodes.
func TestScratchReuseIsStateless(t *testing.T) {
	p := testParams()
	d, err := newDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	saturated := allOnes(p.PhaseLength())
	small := bitstring.New(p.PhaseLength())
	for _, cw := range []int{5, 12} {
		small.OrInPlace(d.code.Mask(cw))
	}
	sc := d.newScratch()
	for trial := 0; trial < 3; trial++ {
		all := d.members(saturated, sc.members)
		sc.members = all
		if len(all) != p.M {
			t.Fatalf("trial %d: saturated decode found %d members", trial, len(all))
		}
		d.collisions(all, sc)
		few := d.members(small, sc.members)
		sc.members = few
		if len(few) != 2 || few[0] != 5 || few[1] != 12 {
			t.Fatalf("trial %d: small decode %v", trial, few)
		}
		collided := d.collisions(few, sc)
		for _, cw := range few {
			if want := refSoloMask(d, cw, few); !d.soloMask(cw, collided).Equal(want) {
				t.Fatalf("trial %d: reused scratch solo mask of %d differs", trial, cw)
			}
		}
	}
}

// encodePhase2 is encodePhase2Into with a freshly allocated pattern.
func (d *decoder) encodePhase2(cw int, msg []byte) *bitstring.BitString {
	out := bitstring.New(d.code.Length())
	d.encodePhase2Into(cw, msg, out)
	return out
}
