package noise

import (
	"fmt"

	"repro/internal/rng"
)

// Registered model names.
const (
	NameSymmetric      = "symmetric"
	NameAsymmetric     = "asymmetric"
	NameErasure        = "erasure"
	NameGilbertElliott = "gilbert-elliott"
)

func init() {
	Register(NameSymmetric, func(args []float64) (Model, error) {
		if err := arity(NameSymmetric, args, 1); err != nil {
			return nil, err
		}
		return Symmetric{Eps: args[0]}, nil
	})
	Register(NameAsymmetric, func(args []float64) (Model, error) {
		if err := arity(NameAsymmetric, args, 2); err != nil {
			return nil, err
		}
		return Asymmetric{P01: args[0], P10: args[1]}, nil
	})
	Register(NameErasure, func(args []float64) (Model, error) {
		if err := arity(NameErasure, args, 2); err != nil {
			return nil, err
		}
		if args[1] != 0 && args[1] != 1 {
			return nil, fmt.Errorf("noise: erasure read-as policy must be 0 or 1, got %v", args[1])
		}
		return Erasure{Q: args[0], ReadAs1: args[1] == 1}, nil
	})
	Register(NameGilbertElliott, func(args []float64) (Model, error) {
		if err := arity(NameGilbertElliott, args, 4); err != nil {
			return nil, err
		}
		return GilbertElliott{PGood: args[0], PBad: args[1], PGoodToBad: args[2], PBadToGood: args[3]}, nil
	})
}

// ValidRate reports whether v is an error rate the decoders must be able
// to fight: v ∈ [0, ½), the same capacity bound the symmetric channel has
// always had. NaN is outside it. Every ε check in the system applies this
// one rule.
func ValidRate(v float64) bool { return v >= 0 && v < 0.5 }

// flipRate validates a model parameter with ValidRate.
func flipRate(name, param string, v float64) error {
	if !ValidRate(v) {
		return fmt.Errorf("noise: %s: %s = %v outside [0, 0.5)", name, param, v)
	}
	return nil
}

// --- symmetric ---

// Symmetric is the paper's binary symmetric channel: every received bit
// flips independently with probability Eps. Its sampler is bit-for-bit
// the beep layer's original ε channel — same stream derivation, same
// geometric flip enumeration — which is what keeps every symmetric
// record byte-identical across the pluggable-model refactor.
type Symmetric struct {
	Eps float64
}

func (m Symmetric) Name() string { return NameSymmetric }
func (m Symmetric) Spec() string { return NameSymmetric + ":" + fmtF(m.Eps) }
func (m Symmetric) Validate() error {
	return flipRate(NameSymmetric, "ε", m.Eps)
}
func (m Symmetric) FlipRates() (p01, p10 float64) { return m.Eps, m.Eps }
func (m Symmetric) Noiseless() bool               { return m.Eps == 0 }

func (m Symmetric) Sampler(seed uint64, node int) Sampler {
	return &symmetricSampler{fs: rng.NewFlipSampler(baseStream(seed, node), m.Eps)}
}

type symmetricSampler struct {
	fs *rng.FlipSampler
}

func (s *symmetricSampler) ApplyInto(words []uint64, start, end int) {
	s.fs.XorFlipsInto(words, start, end)
}

func (s *symmetricSampler) FlipAt(t int, bit bool) bool {
	return consumeAt(s.fs, t)
}

// consumeAt advances fs through slot t, reporting whether a flip landed
// exactly on t. Stale positions before t are consumed and discarded.
func consumeAt(fs *rng.FlipSampler, t int) bool {
	for fs.Peek() < t {
		fs.Skip()
	}
	if fs.Peek() != t {
		return false
	}
	fs.Skip()
	return true
}

// --- asymmetric ---

// Asymmetric is a binary channel with direction-dependent error: a
// silent slot is heard as a beep with probability P01 (false positive)
// and a beeped slot is missed with probability P10, independently per
// slot. The two flip processes draw from independent sub-streams and
// both advance over every slot, so stream consumption never depends on
// the transmitted data.
type Asymmetric struct {
	P01 float64 // Pr[0 → 1]: false positive rate
	P10 float64 // Pr[1 → 0]: missed-beep rate
}

func (m Asymmetric) Name() string { return NameAsymmetric }
func (m Asymmetric) Spec() string {
	return NameAsymmetric + ":" + fmtF(m.P01) + ":" + fmtF(m.P10)
}
func (m Asymmetric) Validate() error {
	if err := flipRate(NameAsymmetric, "p01", m.P01); err != nil {
		return err
	}
	return flipRate(NameAsymmetric, "p10", m.P10)
}
func (m Asymmetric) FlipRates() (p01, p10 float64) { return m.P01, m.P10 }
func (m Asymmetric) Noiseless() bool               { return m.P01 == 0 && m.P10 == 0 }

func (m Asymmetric) Sampler(seed uint64, node int) Sampler {
	return &asymmetricSampler{
		fs01: rng.NewFlipSampler(subStream(seed, node, 1), m.P01),
		fs10: rng.NewFlipSampler(subStream(seed, node, 2), m.P10),
	}
}

type asymmetricSampler struct {
	fs01, fs10   *rng.FlipSampler
	buf01, buf10 []uint64 // per-window flip masks, reused across calls
}

func (s *asymmetricSampler) ApplyInto(words []uint64, start, end int) {
	if end <= start {
		return
	}
	n := (end - start + 63) >> 6
	s.buf01 = zeroed(s.buf01, n)
	s.buf10 = zeroed(s.buf10, n)
	s.fs01.XorFlipsInto(s.buf01, start, end)
	s.fs10.XorFlipsInto(s.buf10, start, end)
	for i := 0; i < n; i++ {
		// 0→1 flips land on 0-bits, 1→0 flips on 1-bits.
		words[i] ^= (s.buf01[i] &^ words[i]) | (s.buf10[i] & words[i])
	}
}

func (s *asymmetricSampler) FlipAt(t int, bit bool) bool {
	// Both processes consume their streams unconditionally: the draw an
	// opposite-bit slot wastes here is the draw ApplyInto's mask build
	// would have spent.
	hit01 := consumeAt(s.fs01, t)
	hit10 := consumeAt(s.fs10, t)
	if bit {
		return hit10
	}
	return hit01
}

// zeroed returns buf resized to n words, all zero.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// --- erasure ---

// Erasure loses each slot independently with probability Q; a lost slot
// reads as the receiver's constant erasure policy (ReadAs1). Marginally
// it is a fully asymmetric channel — read-as-0 only misses beeps,
// read-as-1 only fabricates them — but as a model it keeps the policy
// explicit, matching receivers that squelch (read 0) or saturate
// (read 1) on carrier loss.
type Erasure struct {
	Q       float64 // erasure probability per slot
	ReadAs1 bool    // erased slots read as 1 (default policy reads 0)
}

func (m Erasure) Name() string { return NameErasure }
func (m Erasure) Spec() string {
	policy := "0"
	if m.ReadAs1 {
		policy = "1"
	}
	return NameErasure + ":" + fmtF(m.Q) + ":" + policy
}
func (m Erasure) Validate() error {
	return flipRate(NameErasure, "q", m.Q)
}
func (m Erasure) FlipRates() (p01, p10 float64) {
	if m.ReadAs1 {
		return m.Q, 0
	}
	return 0, m.Q
}
func (m Erasure) Noiseless() bool { return m.Q == 0 }

func (m Erasure) Sampler(seed uint64, node int) Sampler {
	return &erasureSampler{
		fs:      rng.NewFlipSampler(baseStream(seed, node), m.Q),
		readAs1: m.ReadAs1,
	}
}

type erasureSampler struct {
	fs      *rng.FlipSampler
	readAs1 bool
	buf     []uint64
}

func (s *erasureSampler) ApplyInto(words []uint64, start, end int) {
	if end <= start {
		return
	}
	n := (end - start + 63) >> 6
	s.buf = zeroed(s.buf, n)
	s.fs.XorFlipsInto(s.buf, start, end)
	for i := 0; i < n; i++ {
		if s.readAs1 {
			words[i] |= s.buf[i]
		} else {
			words[i] &^= s.buf[i]
		}
	}
}

func (s *erasureSampler) FlipAt(t int, bit bool) bool {
	if !consumeAt(s.fs, t) {
		return false
	}
	return bit != s.readAs1 // erased slots read as the policy constant
}

// --- gilbert-elliott ---

// GilbertElliott is the classic two-state burst-noise channel: each
// node's channel sits in a Good or Bad state, flips the slot's
// reception with the state's rate, then transitions with the state's
// exit probability. Chains start in Good. The stationary flip rate
// (FlipRates) is π_B = pG→B/(pG→B+pB→G) mixed over the state rates —
// the i.i.d. rate an unsuspecting decoder would calibrate against,
// which is exactly what makes the model interesting: Algorithm 1's
// analysis assumes independence across slots, and this channel
// concentrates the same marginal error into bursts.
type GilbertElliott struct {
	PGood      float64 // flip rate in the Good state
	PBad       float64 // flip rate in the Bad state
	PGoodToBad float64 // per-slot transition probability Good → Bad
	PBadToGood float64 // per-slot transition probability Bad → Good
}

func (m GilbertElliott) Name() string { return NameGilbertElliott }
func (m GilbertElliott) Spec() string {
	return NameGilbertElliott + ":" + fmtF(m.PGood) + ":" + fmtF(m.PBad) +
		":" + fmtF(m.PGoodToBad) + ":" + fmtF(m.PBadToGood)
}

func (m GilbertElliott) Validate() error {
	if err := probRange(NameGilbertElliott, "pGood", m.PGood, 1); err != nil {
		return err
	}
	if err := probRange(NameGilbertElliott, "pBad", m.PBad, 1); err != nil {
		return err
	}
	if err := probRange(NameGilbertElliott, "pG→B", m.PGoodToBad, 1); err != nil {
		return err
	}
	if err := probRange(NameGilbertElliott, "pB→G", m.PBadToGood, 1); err != nil {
		return err
	}
	// Within-state rates may exceed ½ (a deep fade); the stationary
	// marginal is what decoders fight and must stay below capacity.
	p01, _ := m.FlipRates()
	if p01 >= 0.5 {
		return fmt.Errorf("noise: %s: stationary flip rate %v outside [0, 0.5)", NameGilbertElliott, p01)
	}
	return nil
}

func (m GilbertElliott) FlipRates() (p01, p10 float64) {
	piBad := 0.0
	if d := m.PGoodToBad + m.PBadToGood; d > 0 {
		piBad = m.PGoodToBad / d
	}
	// The rate that picks R and θ; products rounded explicitly (DESIGN.md §4).
	rate := float64((1-piBad)*m.PGood) + float64(piBad*m.PBad)
	return rate, rate
}

// Noiseless is reachability-based, not stationary: chains start in
// Good, so the Good rate always matters, and the Bad rate matters
// whenever Bad is reachable — even if the stationary distribution
// forgets the transient state (e.g. an absorbing zero-rate Bad state
// reached only after a long noisy Good sojourn).
func (m GilbertElliott) Noiseless() bool {
	if m.PGood != 0 {
		return false
	}
	return m.PBad == 0 || m.PGoodToBad == 0
}

func (m GilbertElliott) Sampler(seed uint64, node int) Sampler {
	return &geSampler{m: m, r: baseStream(seed, node)}
}

// geSampler walks the Markov chain slot by slot. Every slot consumes
// exactly two uniforms — one flip draw, one transition draw — so
// consumption is position-determined and the batch and scalar paths
// agree by construction. Unlike the i.i.d. samplers there is no
// geometric skipping (state must advance through every slot); the batch
// path still writes word-at-a-time.
type geSampler struct {
	m   GilbertElliott
	r   *rng.Stream
	bad bool
	pos int // next unprocessed absolute slot
}

// step processes one slot: flip decision by the current state's rate,
// then the state transition.
func (s *geSampler) step() bool {
	p, q := s.m.PGood, s.m.PGoodToBad
	if s.bad {
		p, q = s.m.PBad, s.m.PBadToGood
	}
	flip := s.r.Float64() < p
	if s.r.Float64() < q {
		s.bad = !s.bad
	}
	s.pos++
	return flip
}

func (s *geSampler) ApplyInto(words []uint64, start, end int) {
	for s.pos < start {
		s.step() // stale slots from earlier windows
	}
	var acc uint64
	wi := -1
	for s.pos < end {
		i := s.pos - start
		if !s.step() {
			continue
		}
		if w := i >> 6; w != wi {
			if wi >= 0 {
				words[wi] ^= acc
			}
			wi, acc = w, 0
		}
		acc |= 1 << (uint(i) & 63)
	}
	if wi >= 0 {
		words[wi] ^= acc
	}
}

func (s *geSampler) FlipAt(t int, bit bool) bool {
	if t < s.pos {
		return false // already-consumed slot, like the i.i.d. samplers
	}
	for s.pos < t {
		s.step()
	}
	return s.step()
}
