package core

import (
	"fmt"
	"math"

	"repro/internal/bitstring"
	"repro/internal/codes"
	"repro/internal/rng"
)

// decoder implements the node-local decoding of §4. Everything it uses is
// information an honest node possesses: the public codes, the parameters,
// and the bits the node itself heard.
//
// The hot path is table-driven and word-parallel: the beep code's PRG
// hashing is paid once at construction (cached position tables and
// codeword masks), the Lemma 9 membership test is a popcount sweep
// (mask ∧ ¬x̃), and the positions a whole decoded member set collides on
// are one bitmap, ORed together from the members' masks. None of this
// changes any decoded bit — TestPropertyOptimizedMatchesNaive pins the
// output to a retained naive reference implementation.
type decoder struct {
	p    Params
	code *codes.BlockedBeepCode
	dist *codes.RepetitionCode

	// Stage-A filter: probe a prefix of blocks and discard codewords that
	// already look absent, leaving the exact §4 threshold test to the few
	// survivors. Purely an optimization — a codeword is accepted iff it
	// passes the full MembershipThreshold test.
	stageAProbes int
	stageAThresh int
	// The stage-A probes are the codeword's 1s in the first stageAProbes
	// blocks, i.e. its mask bits within the first stageABits positions —
	// so when that prefix is word-dense enough, the probe count runs as a
	// word-parallel prefix sweep instead of stageAProbes scalar probes.
	// Both compute the identical count; stageAWordSweep picks the cheaper.
	stageABits      int
	stageAWordSweep bool

	theta    int // MembershipThreshold, cached
	msgBytes int // ⌈MsgBits/8⌉
}

func newDecoder(p Params) (*decoder, error) {
	if p.W() < 4 {
		return nil, fmt.Errorf("core: W = R·MsgBits = %d too small (need ≥ 4)", p.W())
	}
	code, err := codes.NewBlockedBeepCode(p.W(), p.BlockSize(), p.M, rng.Mix(p.Seed, 0xc0de))
	if err != nil {
		return nil, err
	}
	dist, err := codes.NewRepetitionCode(p.MsgBits, p.R, rng.Mix(p.Seed, 0xd157))
	if err != nil {
		return nil, err
	}
	return (&decoder{code: code, dist: dist}).rebind(p), nil
}

// rebind returns a decoder for p over d's beep and distance codes, which
// must have been built for p.TableKey(): only the thresholds are
// recomputed.
func (d *decoder) rebind(p Params) *decoder {
	probes := p.W()
	if probes > 32 {
		probes = 32
	}
	// Reject in stage A only at a miss fraction well above the final
	// threshold, so members essentially never die in the filter.
	frac := float64(p.MembershipThreshold())/float64(p.W()) + 0.30
	if frac > 0.95 {
		frac = 0.95
	}
	stageABits := probes * p.BlockSize()
	return &decoder{
		p:            p,
		code:         d.code,
		dist:         d.dist,
		stageAProbes: probes,
		stageAThresh: int(math.Ceil(frac * float64(probes))),
		stageABits:   stageABits,
		// The prefix sweep touches stageABits/64 words; the scalar path
		// touches stageAProbes random positions. Prefer the sweep until
		// blocks get so wide that the prefix outweighs the probes.
		stageAWordSweep: stageABits/64 <= 4*probes,
		theta:           p.MembershipThreshold(),
		msgBytes:        (p.MsgBits + 7) / 8,
	}
}

// Codes bundles the prebuilt, read-only decode tables of a
// parameterization — the beep-code position/offset/mask tables and the
// distance-code permutation, i.e. everything newDecoder hashes out of
// the PRG. A Codes value is a pure function of its Params (public
// shared knowledge in the paper's model), safe to share across any
// number of concurrent runners, and is the unit the sweep layer's
// artifact cache stores so a batch hashes each TableKey's tables once.
type Codes struct {
	p   Params
	dec *decoder
}

// BuildCodes constructs the decode tables for p (validated only for
// internal consistency; NewBroadcastRunner still validates p against
// the graph).
func BuildCodes(p Params) (*Codes, error) {
	dec, err := newDecoder(p)
	if err != nil {
		return nil, err
	}
	return &Codes{p: p, dec: dec}, nil
}

// Rebind returns the decode tables for p. When p has c's TableKey they
// share c's beep and distance codes and only the thresholds are
// recomputed; otherwise (or for a nil c) they are built afresh.
func (c *Codes) Rebind(p Params) (*Codes, error) {
	switch {
	case c == nil || p.TableKey() != c.p.TableKey():
		return BuildCodes(p)
	case p == c.p:
		return c, nil
	}
	return &Codes{p: p, dec: c.dec.rebind(p)}, nil
}

// decodeScratch holds a decoder's per-worker mutable state, so that
// steady-state decoding allocates nothing. Each concurrent decode needs
// its own scratch (the runner keeps one per execution-pool shard); the
// decoder itself stays read-only and shareable.
type decodeScratch struct {
	members []int
	// ones and twos are collisions' phase-length bitmaps: the positions
	// at least one, and at least two, decoded members occupy.
	ones, twos *bitstring.BitString
}

func (d *decoder) newScratch() *decodeScratch {
	return &decodeScratch{
		ones: bitstring.New(d.p.PhaseLength()),
		twos: bitstring.New(d.p.PhaseLength()),
	}
}

// members returns R̃: every codeword cw whose positions are consistent
// with presence in the heard superimposition x — fewer than θ of its W
// positions read 0 (the Lemma 9 test with θ = (2ε+1)/4·W). The result is
// appended to out[:0] (callers pass a reused slice; nil allocates).
func (d *decoder) members(x *bitstring.BitString, out []int) []int {
	out = out[:0]
	for cw := 0; cw < d.p.M; cw++ {
		mask := d.code.Mask(cw)
		if d.stageAWordSweep {
			if mask.AndNotCountPrefixLimit(x, d.stageABits, d.stageAThresh) >= d.stageAThresh {
				continue
			}
		} else {
			probes := d.code.PositionRow(cw)[:d.stageAProbes]
			if x.CountZerosAtLimit(probes, d.stageAThresh) >= d.stageAThresh {
				continue
			}
		}
		if mask.AndNotCountLimit(x, d.theta) < d.theta {
			out = append(out, cw)
		}
	}
	return out
}

// collisions returns the positions that two or more of the decoded
// members' codewords (the listener's own included) occupy, as a
// phase-length bitmap in sc, valid until the next call on sc. Every
// codeword has exactly one 1 per block, so member t's position j is solo —
// no other member shares t's offset in block j, the positions where the §4
// analysis guarantees the listener hears only t's transmission plus
// channel noise — iff the bitmap is 0 at PositionRow(t)[j].
func (d *decoder) collisions(members []int, sc *decodeScratch) *bitstring.BitString {
	ones, twos := sc.ones.Words(), sc.twos.Words()
	clear(twos)
	if len(members) < 2 {
		return sc.twos
	}
	copy(ones, d.code.Mask(members[0]).Words())
	twos = twos[:len(ones)]
	for _, cw := range members[1:] {
		mask := d.code.Mask(cw).Words()[:len(ones)]
		for i, m := range mask {
			twos[i] |= ones[i] & m
			ones[i] |= m
		}
	}
	return sc.twos
}

// encodePhase1 returns C(cw) as a beep pattern — the cached codeword
// mask, shared and read-only.
func (d *decoder) encodePhase1(cw int) *bitstring.BitString {
	return d.code.Mask(cw)
}

// encodePhase2Into writes CD(cw, msg) (Notation 7) into out: D(msg)
// scattered into C(cw)'s one-positions, fused through the distance code's
// permutation table so no intermediate codeword is materialized. out must
// have the code's full length. The payload bits are coin flips, so each
// one is ORed into its word as a shifted 0 or 1 instead of being branched
// on; as in wire.Bit, bits past the end of a short message read 0.
func (d *decoder) encodePhase2Into(cw int, msg []byte, out *bitstring.BitString) {
	words := out.Words()
	clear(words)
	for j, pos := range d.code.PositionRow(cw) {
		k := d.dist.BitFor(j)
		var bit uint64
		if i := k >> 3; i < len(msg) {
			bit = uint64(msg[i]>>(k&7)) & 1
		}
		words[pos>>6] |= bit << (uint(pos) & 63)
	}
}
