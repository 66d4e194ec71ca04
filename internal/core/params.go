// Package core implements the paper's primary contribution: the optimal
// simulation of Broadcast CONGEST (Algorithm 1, §3) and CONGEST
// (Corollary 12) in the noisy beeping model.
//
// One simulated Broadcast CONGEST round costs two beep phases of length
// b = W·BlockSize each:
//
//	Phase 1 — each transmitting node beeps its beep-code codeword C(r_v);
//	every node decodes the set R̃_v of codewords in its neighborhood from
//	the superimposition it hears (§4, Lemmas 8–9).
//
//	Phase 2 — each transmitter beeps the combined codeword CD(r_v, m_v):
//	its message m_v, encoded under a distance code, written into the
//	positions where C(r_v) is 1 (Notation 7). Every node recovers each
//	neighbor's message from the bits at that neighbor's codeword
//	positions, relying on the "solo" positions where no other decoded
//	codeword overlaps (Lemma 10).
//
// The parameterization mirrors the paper with practical constants (see
// DESIGN.md §2 for the substitution table): the density factor C plays the
// role of c_ε (block size C·K keeps the superimposition at density ≈ 1/C),
// and the repetition factor R is the distance-code redundancy.
package core

import (
	"fmt"
	"math"

	"repro/internal/noise"
)

// Assignment selects how nodes obtain their beep-code codewords.
type Assignment int

const (
	// AssignByID gives node v codeword v from the public codebook. With a
	// codebook drawn independently of the graph this has the same
	// per-neighborhood distribution as random choice but is collision-free
	// — the deterministic analogue of Lemma 8's "all nodes choose
	// different random strings" conditioning (DESIGN.md substitution #2).
	AssignByID Assignment = iota + 1
	// AssignRandom redraws a uniform codeword index every simulated round,
	// exactly as Algorithm 1 does. Within-neighborhood collisions then
	// occur with probability ≈ K²/(2M) per node and are measured by
	// ablation A2.
	AssignRandom
)

// Params configures the Algorithm 1 instantiation.
type Params struct {
	// MsgBits is the simulated Broadcast CONGEST bandwidth (γ·log n).
	MsgBits int
	// K bounds the superimposition size; it must be at least Δ+1 so that
	// every inclusive neighborhood fits (Definition 3's k).
	K int
	// C is the density factor: blocks have C·K positions, so a
	// neighborhood superimposition has density ≈ 1/C (the paper's 1/c_ε).
	C int
	// R is the distance-code redundancy: each message bit occupies R
	// codeword positions, so W = R·MsgBits.
	R int
	// M is the codebook size. AssignByID requires M ≥ n.
	M int
	// Epsilon is the channel noise rate the decoder is calibrated for.
	// When Noise is set it is the model's worst marginal flip rate
	// (DefaultParamsNoise derives it), kept so the repetition and
	// validation math stay meaningful.
	Epsilon float64
	// Noise is the canonical channel-model spec (internal/noise.Parse);
	// empty selects the symmetric{Epsilon} channel, bit-for-bit the
	// historic behavior. The spec is part of the parameterization's
	// identity: decode tables built for one channel are cached and
	// validated under (Params including Noise).
	Noise string
	// Assignment selects codeword assignment (default AssignByID).
	Assignment Assignment
	// Seed derives the public codebook and distance-code permutation
	// (shared knowledge, as code constructions are in the paper).
	Seed uint64
	// DisableSoloFilter makes phase-2 decoding treat every position as
	// reliable instead of restricting to solo positions (ablation A3).
	// The §4 analysis predicts this degrades decoding because colliding
	// neighbors can only add energy, biasing unfiltered majorities
	// toward 1.
	DisableSoloFilter bool
}

// DefaultParams returns a practical parameterization for an n-node graph
// with maximum degree maxDeg, bandwidth msgBits, and noise eps. The
// repetition factor grows with eps the way c_ε does in the paper; all
// choices keep the phase length Θ(Δ·msgBits), i.e. Θ(Δ log n) for
// logarithmic bandwidth — the paper's headline overhead.
func DefaultParams(n, maxDeg, msgBits int, eps float64) Params {
	// The repetition factor must grow like (1/2−ε)⁻² as noise approaches
	// the capacity limit — the same blowup the paper's c_ε constraints
	// exhibit (T0).
	r := 5
	switch {
	case eps == 0:
		r = 5
	case eps < 0.07:
		r = 21
	case eps < 0.12:
		r = 31
	case eps < 0.2:
		r = 45
	case eps < 0.26:
		r = 75
	case eps < 0.33:
		r = 151
	default:
		r = 301
	}
	return Params{
		MsgBits:    msgBits,
		K:          maxDeg + 1,
		C:          4,
		R:          r,
		M:          n,
		Epsilon:    eps,
		Assignment: AssignByID,
		Seed:       0xbeef,
	}
}

// DefaultParamsNoise is DefaultParams generalized to a pluggable channel
// model: an empty spec is exactly DefaultParams(n, maxDeg, msgBits, eps);
// a non-empty spec (internal/noise.Parse) replaces eps with the model's
// calibration rate (worst marginal flip rate for stochastic models,
// worst-case per-window rate for hostile ones — noise.CalibrationRate)
// for the repetition-factor calibration and
// rides along in Params.Noise, where the membership threshold θ and the
// beeping channel itself consult it.
func DefaultParamsNoise(n, maxDeg, msgBits int, eps float64, spec string) (Params, error) {
	if spec == "" {
		return DefaultParams(n, maxDeg, msgBits, eps), nil
	}
	if eps != 0 {
		// Same contract as beep.NewNetwork: a model owns the channel, a
		// nonzero ε alongside it is a double specification, not an input
		// to silently drop.
		return Params{}, fmt.Errorf("core: both ε = %v and channel %s given; the model owns the channel, pass ε 0", eps, spec)
	}
	m, err := noise.Parse(spec)
	if err != nil {
		return Params{}, fmt.Errorf("core: %w", err)
	}
	// Hostile (adversarial/jamming) models have no meaningful marginal
	// rate; calibrate against their worst-case per-window rate instead.
	// An adversary that corrupts more than that per window breaks the
	// protocol by design (sim.ProtocolBrokenError), it does not get a
	// larger repetition factor.
	rate := noise.CalibrationRate(m)
	if rate >= 0.5 {
		return Params{}, fmt.Errorf("core: channel %s: calibration rate %v outside [0, 0.5)", m.Spec(), rate)
	}
	p := DefaultParams(n, maxDeg, msgBits, rate)
	p.Noise = m.Spec() // canonical spelling, whatever the caller wrote
	return p, nil
}

// Validate checks p for a graph with n nodes and maximum degree maxDeg.
func (p Params) Validate(n, maxDeg int) error {
	if p.MsgBits <= 0 {
		return fmt.Errorf("core: MsgBits = %d", p.MsgBits)
	}
	if p.K < maxDeg+1 {
		return fmt.Errorf("core: K = %d < Δ+1 = %d (Definition 3 needs the inclusive neighborhood to fit)", p.K, maxDeg+1)
	}
	if p.C < 2 {
		return fmt.Errorf("core: density factor C = %d < 2", p.C)
	}
	if p.R < 1 {
		return fmt.Errorf("core: repetition factor R = %d < 1", p.R)
	}
	if !noise.ValidRate(p.Epsilon) {
		return fmt.Errorf("core: ε = %v outside [0, 0.5)", p.Epsilon)
	}
	if p.Noise != "" {
		m, err := noise.Parse(p.Noise)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if spec := m.Spec(); spec != p.Noise {
			return fmt.Errorf("core: noise spec %q is not canonical (want %q)", p.Noise, spec)
		}
		if r := noise.CalibrationRate(m); r >= 0.5 {
			return fmt.Errorf("core: channel %s: calibration rate %v outside [0, 0.5)", p.Noise, r)
		}
	}
	switch p.Assignment {
	case AssignByID:
		if p.M < n {
			return fmt.Errorf("core: AssignByID needs M ≥ n, got M=%d n=%d", p.M, n)
		}
	case AssignRandom:
		if p.M < 2 {
			return fmt.Errorf("core: AssignRandom needs M ≥ 2, got %d", p.M)
		}
	default:
		return fmt.Errorf("core: unknown assignment %d", p.Assignment)
	}
	return nil
}

// W returns the codeword weight (= distance-code length) R·MsgBits.
func (p Params) W() int { return p.R * p.MsgBits }

// BlockSize returns C·K, the positions per block.
func (p Params) BlockSize() int { return p.C * p.K }

// TableKey is p reduced to the fields its beep and distance codes are
// hashed from. Params that differ only in ε, the channel, the assignment
// or the solo filter have one TableKey and share those codes
// (Codes.Rebind); only their decoding thresholds differ.
func (p Params) TableKey() Params {
	return Params{MsgBits: p.MsgBits, K: p.K, C: p.C, R: p.R, M: p.M, Seed: p.Seed}
}

// PhaseLength returns b = W·BlockSize beep rounds per phase.
func (p Params) PhaseLength() int { return p.W() * p.BlockSize() }

// RoundsPerSimRound returns the beep rounds consumed per simulated
// Broadcast CONGEST round (two phases).
func (p Params) RoundsPerSimRound() int { return 2 * p.PhaseLength() }

// MembershipThreshold returns θ = ⌊(2ε+1)/4 · W⌋: codeword r is decoded as
// present iff fewer than θ of its W positions read 0 — exactly the §4 rule
// "C(r) does not (2ε+1)/4·c_ε²γlog n-intersect ¬x̃_v".
//
// Under a pluggable channel the role of ε in the threshold is the
// missed-beep rate: a present codeword's positions carry beeps, so they
// read 0 at the channel's marginal 1→0 rate p10, and θ sits at the
// midpoint of p10·W (expected misses when present) and W/2 (the
// conservative absence rate the paper uses). For the symmetric channel
// p10 = ε and the expression is unchanged.
func (p Params) MembershipThreshold() int {
	eps := p.Epsilon
	if p.Noise != "" {
		if m, err := noise.Parse(p.Noise); err == nil {
			if noise.Hostile(m) {
				// A hostile channel suppresses beeps at up to its
				// worst-case rate within a window; provision θ for it.
				eps = noise.CalibrationRate(m)
			} else {
				_, p10 := m.FlipRates()
				eps = p10
			}
		}
	}
	return int((2*eps + 1) / 4 * float64(p.W()))
}

// PaperSizes reports the paper-faithful parameter sizes of §3 for
// comparison with the practical profile (experiment T0).
type PaperSizes struct {
	// CEps is the constant c_ε: the maximum of every lower bound the
	// proofs of Lemmas 9 and 10 impose.
	CEps float64
	// CodewordBits is a = c_ε·γ·log n, the length of the random strings
	// r_v (so the decoder searches 2^a codewords).
	CodewordBits float64
	// DistanceLen is c_ε²·γ·log n, the distance-code length.
	DistanceLen float64
	// PhaseLen is b = c_ε³·γ·(Δ+1)·log n, the beep-code length.
	PhaseLen float64
	// TotalPerRound is the beep rounds per simulated round (two phases).
	TotalPerRound float64
}

// PaperParams evaluates the paper's constant constraints for noise rate
// eps ∈ (0, ½), message constant gamma, and a graph with n nodes and
// maximum degree maxDeg:
//
//	c_ε ≥ max{108, 60/(1−2ε), 54/((1−2ε)²ε)+5, (6/ε)(1/(4ε)−1/2)⁻²,
//	          30/(ε(1−2ε)), 6((1−ε)(1−2ε)/(ε(7−2ε)))⁻²}
//
// collected from Lemma 9 ("cε ≥ max{…}") and Lemma 10 ("We required
// that…"), plus the Lemma 6 instantiation (cε ≥ 108).
func PaperParams(n, maxDeg int, gamma, eps float64) (PaperSizes, error) {
	if eps == 0 || !noise.ValidRate(eps) {
		return PaperSizes{}, fmt.Errorf("core: paper constants need ε ∈ (0, ½), got %v", eps)
	}
	if n < 2 || gamma <= 0 {
		return PaperSizes{}, fmt.Errorf("core: invalid n=%d gamma=%v", n, gamma)
	}
	one2e := 1 - 2*eps
	candidates := []float64{
		108,
		60 / one2e,
		54/(one2e*one2e*eps) + 5,
		(6 / eps) * math.Pow(1/(4*eps)-0.5, -2),
		30 / (eps * one2e),
		6 * math.Pow((1-eps)*one2e/(eps*(7-2*eps)), -2),
	}
	ceps := 0.0
	for _, c := range candidates {
		if c > ceps {
			ceps = c
		}
	}
	logn := math.Log2(float64(n))
	sizes := PaperSizes{
		CEps:         ceps,
		CodewordBits: ceps * gamma * logn,
		DistanceLen:  ceps * ceps * gamma * logn,
		PhaseLen:     ceps * ceps * ceps * gamma * float64(maxDeg+1) * logn,
	}
	sizes.TotalPerRound = 2 * sizes.PhaseLen
	return sizes, nil
}
