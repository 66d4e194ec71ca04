package noise

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
)

// This file adds the hostile end of the channel axis: budget-bounded
// adversarial corruption ("adversary:strategy:budget[:args]") and a
// deterministic duty-cycle jammer ("jam:duty:period"). The stochastic
// models answer "how does the protocol fare on average?"; these answer
// the resilience-frontier question — how much targeted interference
// breaks it (sweep.FrontierSearch drives the budget as a search axis).
//
// The adversary contract (DESIGN.md §2.16) in brief:
//
//   - A Strategy observes only the listener's pre-noise reception bit,
//     the absolute slot index, public topology (when bound), and one
//     private uniform per slot — never protocol state, other nodes'
//     receptions, or the future. That keeps samplers position-
//     deterministic: the two execution paths (ApplyInto, FlipAt) share
//     one decision procedure and stay bit-identical.
//   - Budget is per sampler, i.e. per listener: the adversary may
//     corrupt at most Budget receptions of each listener. Spending is
//     greedy — every slot the strategy targets is corrupted until the
//     budget runs dry — so a larger budget's corruption set contains a
//     smaller one's, the monotonicity the frontier's binary search
//     leans on (protocol-level breakage need not be monotone, but the
//     bracket invariant keeps the search result well-defined).

// Hostile model names.
const (
	NameAdversary = "adversary"
	NameJam       = "jam"
)

// Registered adversary strategy names.
const (
	StrategyRandom = "random" // budget-limited baseline: corrupt each slot w.p. p
	StrategySolo   = "solo"   // kill detected beeps — attacks the solo-detection filter
	StrategyPhase  = "phase"  // concentrate flips at phase/window boundaries
	StrategyHub    = "hub"    // spend budget only at high-degree listeners
)

// AdversaryCalibRate is the worst-case per-window corruption rate the
// θ/repetition calibration provisions for under an adversarial channel
// (CalibrationRate): the decoders assume at most this fraction of any
// repetition window is corrupted, whatever the budget. 0.15 sits in the
// R = 45 / ρ = 31 calibration band — enough slack that θ = (2·0.15+1)/4
// of a codeword's positions must be zeroed before membership flips,
// while keeping phases short enough for frontier searches to be cheap.
// An adversary whose realized per-window rate exceeds this breaks the
// protocol by design; the run then terminates with a recorded
// *sim.ProtocolBrokenError, never a hang or panic.
const AdversaryCalibRate = 0.15

func init() {
	RegisterSpec(NameAdversary, parseAdversary)
	Register(NameJam, func(args []float64) (Model, error) {
		if err := arity(NameJam, args, 2); err != nil {
			return nil, err
		}
		duty, period := args[0], args[1]
		if duty != math.Trunc(duty) || period != math.Trunc(period) {
			return nil, fmt.Errorf("noise: %s: duty %v and period %v must be integers", NameJam, duty, period)
		}
		return Jam{Duty: int(duty), Period: int(period)}, nil
	})
}

// --- worst-case calibration ---

// WorstCase marks hostile channel models — those whose error process is
// budgeted or scheduled rather than stationary. FlipRates is
// meaningless for them (an adversary's marginal rate over an unbounded
// run is 0); WorstCaseRate is the per-window rate the decoder
// calibration must absorb instead.
type WorstCase interface {
	// WorstCaseRate returns the worst-case fraction of a repetition
	// window the channel may corrupt, in [0, 0.5).
	WorstCaseRate() float64
}

// Hostile reports whether m is a worst-case (adversarial or jamming)
// model. Hostile scenarios that fail output verification are attributed
// to the channel (sim.ProtocolBrokenError), not the algorithm.
func Hostile(m Model) bool {
	_, ok := m.(WorstCase)
	return ok
}

// CalibrationRate returns the rate decoder thresholds and repetition
// factors should calibrate against: the worst-case rate for hostile
// models, the worst marginal flip rate for stochastic ones. For every
// stochastic model this is exactly the max-marginal rule the callers
// used before the hostile axis existed.
func CalibrationRate(m Model) float64 {
	if w, ok := m.(WorstCase); ok {
		return w.WorstCaseRate()
	}
	p01, p10 := m.FlipRates()
	return math.Max(p01, p10)
}

// --- strategy ---

// View is the public information a Strategy may condition on: the
// listener's identity and — once the model is topology-bound
// (TopologyBinder) — its degree and the graph's maximum degree.
// HasTopology distinguishes "degree 0" from "unbound"; unbound
// strategies must degrade safely (hub treats every node as a hub).
type View struct {
	Node        int
	Degree      int
	MaxDegree   int
	HasTopology bool
}

// Strategy decides which slots an adversary sampler corrupts. Corrupt
// is consulted once per observed slot with the listener's view, the
// absolute slot t, the pre-noise reception bit, and a private uniform u
// (drawn for every slot whether or not the strategy uses it, so stream
// consumption never depends on the decision). It must be a pure
// function of its arguments — no internal state — which is what keeps
// the scalar and batch paths interchangeable mid-run.
type Strategy interface {
	Name() string
	Corrupt(v View, t int, bit bool, u float64) bool
}

type randomStrategy struct{ p float64 }

func (s randomStrategy) Name() string                                  { return StrategyRandom }
func (s randomStrategy) Corrupt(_ View, _ int, _ bool, u float64) bool { return u < s.p }

// soloStrategy flips detected beeps (1 → 0): the cheapest attack on the
// paper's solo-detection filter, which needs a codeword's solo
// positions to survive as 1s. It never fabricates energy.
type soloStrategy struct{}

func (soloStrategy) Name() string                                    { return StrategySolo }
func (soloStrategy) Corrupt(_ View, _ int, bit bool, _ float64) bool { return bit }

// phaseStrategy corrupts the first width slots of every period-slot
// stretch — flips concentrated at phase/window boundaries, where
// Algorithm 1's presence beacons and the TDMA slot headers live.
type phaseStrategy struct{ period, width int }

func (s phaseStrategy) Name() string                                  { return StrategyPhase }
func (s phaseStrategy) Corrupt(_ View, t int, _ bool, _ float64) bool { return t%s.period < s.width }

// hubStrategy spends budget only at high-degree listeners (degree ≥
// frac·Δ). Without topology every listener counts as a hub — the
// strategy degrades to solo-style greed rather than silently doing
// nothing.
type hubStrategy struct{ frac float64 }

func (s hubStrategy) Name() string { return StrategyHub }
func (s hubStrategy) Corrupt(v View, _ int, bit bool, _ float64) bool {
	if !bit {
		return false // like solo: only detected beeps are worth budget
	}
	if !v.HasTopology {
		return true
	}
	return float64(v.Degree) >= s.frac*float64(v.MaxDegree)
}

// --- adversary model ---

// Adversary is the budget-bounded adversarial channel
// "adversary:strategy:budget[:args]": a seeded, deterministic Strategy
// corrupts at most Budget receptions per listener. A and B hold the
// strategy's parameters:
//
//	adversary:random:T[:p]            A = p, corruption probability (default 0.5)
//	adversary:solo:T                  no parameters
//	adversary:phase:T[:period[:width]] A = period (default 64), B = width (default 8)
//	adversary:hub:T[:frac]            A = degree fraction (default 0.5)
//
// The struct is comparable (Parse round-trip equality), and Spec always
// renders the full canonical argument list.
type Adversary struct {
	Strategy string
	Budget   int
	A, B     float64
}

func parseAdversary(args []string) (Model, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("noise: model %q takes strategy:budget[:args], got %d parameters", NameAdversary, len(args))
	}
	budget, err := strconv.Atoi(args[1])
	if err != nil {
		return nil, fmt.Errorf("noise: model %q: bad budget %q (want a non-negative integer)", NameAdversary, args[1])
	}
	m := Adversary{Strategy: args[0], Budget: budget}
	rest := make([]float64, 0, len(args)-2)
	for _, a := range args[2:] {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, fmt.Errorf("noise: model %q: bad parameter %q", NameAdversary, a)
		}
		rest = append(rest, v)
	}
	switch m.Strategy {
	case StrategyRandom, StrategyHub:
		m.A = 0.5
		if len(rest) > 1 {
			return nil, fmt.Errorf("noise: strategy %q takes at most 1 parameter, got %d", m.Strategy, len(rest))
		}
		if len(rest) == 1 {
			m.A = rest[0]
		}
	case StrategySolo:
		if len(rest) != 0 {
			return nil, fmt.Errorf("noise: strategy %q takes no parameters, got %d", m.Strategy, len(rest))
		}
	case StrategyPhase:
		m.A, m.B = 64, 8
		if len(rest) > 2 {
			return nil, fmt.Errorf("noise: strategy %q takes at most 2 parameters, got %d", m.Strategy, len(rest))
		}
		if len(rest) >= 1 {
			m.A = rest[0]
		}
		if len(rest) == 2 {
			m.B = rest[1]
		}
	default:
		return nil, fmt.Errorf("noise: unknown adversary strategy %q (have %s, %s, %s, %s)",
			m.Strategy, StrategyHub, StrategyPhase, StrategyRandom, StrategySolo)
	}
	return m, nil
}

func (m Adversary) Name() string { return NameAdversary }

func (m Adversary) Spec() string {
	s := NameAdversary + ":" + m.Strategy + ":" + strconv.Itoa(m.Budget)
	switch m.Strategy {
	case StrategyRandom, StrategyHub:
		s += ":" + fmtF(m.A)
	case StrategyPhase:
		s += ":" + fmtF(m.A) + ":" + fmtF(m.B)
	}
	return s
}

func (m Adversary) Validate() error {
	if m.Budget < 0 {
		return fmt.Errorf("noise: %s: budget %d is negative", NameAdversary, m.Budget)
	}
	// Unused strategy parameters must be zero: Spec drops them, and two
	// models that render one spec must be one model.
	switch m.Strategy {
	case StrategyRandom:
		if !(m.A > 0 && m.A <= 1) {
			return fmt.Errorf("noise: %s: random corruption probability %v outside (0, 1]", NameAdversary, m.A)
		}
		if m.B != 0 {
			return fmt.Errorf("noise: %s: strategy %q uses no second parameter, got %v", NameAdversary, m.Strategy, m.B)
		}
	case StrategySolo:
		if m.A != 0 || m.B != 0 {
			return fmt.Errorf("noise: %s: strategy %q takes no parameters, got %v, %v", NameAdversary, m.Strategy, m.A, m.B)
		}
	case StrategyPhase:
		if m.A != math.Trunc(m.A) || m.B != math.Trunc(m.B) || m.A < 1 || m.B < 1 || m.B > m.A {
			return fmt.Errorf("noise: %s: phase needs integer period ≥ 1 and width in [1, period], got period %v width %v", NameAdversary, m.A, m.B)
		}
	case StrategyHub:
		if m.A < 0 || m.A > 1 || m.A != m.A {
			return fmt.Errorf("noise: %s: hub degree fraction %v outside [0, 1]", NameAdversary, m.A)
		}
		if m.B != 0 {
			return fmt.Errorf("noise: %s: strategy %q uses no second parameter, got %v", NameAdversary, m.Strategy, m.B)
		}
	default:
		return fmt.Errorf("noise: unknown adversary strategy %q (have %s, %s, %s, %s)",
			m.Strategy, StrategyHub, StrategyPhase, StrategyRandom, StrategySolo)
	}
	return nil
}

// FlipRates is (0, 0): a budgeted adversary has no stationary marginal
// rate — over an unbounded run the corrupted fraction tends to zero.
// Calibration goes through CalibrationRate / WorstCaseRate instead.
func (m Adversary) FlipRates() (p01, p10 float64) { return 0, 0 }

func (m Adversary) Noiseless() bool { return m.Budget == 0 }

// WorstCaseRate implements WorstCase: the per-window corruption rate
// the decoders provision for (AdversaryCalibRate), independent of the
// budget — the budget decides how long the adversary can sustain that
// rate, not how dense it is within a window.
func (m Adversary) WorstCaseRate() float64 { return AdversaryCalibRate }

func (m Adversary) strategy() Strategy {
	switch m.Strategy {
	case StrategyRandom:
		return randomStrategy{p: m.A}
	case StrategySolo:
		return soloStrategy{}
	case StrategyPhase:
		return phaseStrategy{period: int(m.A), width: int(m.B)}
	case StrategyHub:
		return hubStrategy{frac: m.A}
	}
	panic(fmt.Sprintf("noise: unvalidated adversary strategy %q", m.Strategy))
}

// Sampler binds the adversary to one listener without topology: hub
// degrades per View.HasTopology. The execution layers bind topology
// (BindTopology) before deriving samplers, so unbound samplers appear
// only in direct library use.
func (m Adversary) Sampler(seed uint64, node int) Sampler {
	return m.sampler(seed, node, View{Node: node})
}

func (m Adversary) sampler(seed uint64, node int, v View) Sampler {
	return &advSampler{
		strat: m.strategy(),
		view:  v,
		r:     baseStream(seed, node),
		left:  m.Budget,
	}
}

// TopologyBinder is an optional Model capability: attaching public
// topology so per-listener samplers see a full View. Binding is
// deterministic (beep.NewNetwork binds before deriving samplers) and
// never consumes randomness.
type TopologyBinder interface {
	Model
	// BindTopology returns a model whose samplers see the given
	// per-node degrees and maximum degree. degrees is retained; callers
	// pass a fresh slice.
	BindTopology(degrees []int, maxDeg int) Model
}

// BindTopology implements TopologyBinder.
func (m Adversary) BindTopology(degrees []int, maxDeg int) Model {
	return boundAdversary{Adversary: m, degrees: degrees, maxDeg: maxDeg}
}

// boundAdversary is an Adversary with topology attached. It inherits
// the embedded model's identity (Name, Spec, Validate, rates) — binding
// is an execution detail, not a spec axis.
type boundAdversary struct {
	Adversary
	degrees []int
	maxDeg  int
}

func (m boundAdversary) Sampler(seed uint64, node int) Sampler {
	deg := 0
	if node >= 0 && node < len(m.degrees) {
		deg = m.degrees[node]
	}
	return m.sampler(seed, node, View{Node: node, Degree: deg, MaxDegree: m.maxDeg, HasTopology: true})
}

// advSampler walks slots like geSampler: a position counter advances
// through every observed slot, each consuming exactly one uniform —
// drawn before the budget check, so consumption stays position-
// deterministic after exhaustion — and both paths share step().
type advSampler struct {
	strat Strategy
	view  View
	r     *rng.Stream
	left  int // remaining corruption budget
	pos   int // next unprocessed absolute slot
}

// step processes one observed slot. Gate order: budget, then strategy.
func (s *advSampler) step(bit bool) bool {
	u := s.r.Float64()
	t := s.pos
	s.pos++
	if s.left <= 0 || !s.strat.Corrupt(s.view, t, bit, u) {
		return false
	}
	s.left--
	return true
}

// skipTo consumes the stream over slots the sampler never saw delivered
// (a done program's skipped rounds). Unobserved slots never spend
// budget: the adversary corrupts receptions, and these had none.
func (s *advSampler) skipTo(start int) {
	for s.pos < start {
		s.r.Float64()
		s.pos++
	}
}

func (s *advSampler) ApplyInto(words []uint64, start, end int) {
	s.skipTo(start)
	for s.pos < end {
		i := s.pos - start
		mask := uint64(1) << (uint(i) & 63)
		if s.step(words[i>>6]&mask != 0) {
			words[i>>6] ^= mask
		}
	}
}

func (s *advSampler) FlipAt(t int, bit bool) bool {
	if t < s.pos {
		return false // already-consumed slot, like the stochastic samplers
	}
	s.skipTo(t)
	return s.step(bit)
}

// --- jam ---

// Jam is the duty-cycle jammer "jam:duty:period" from the energy
// literature: during the first Duty slots of every Period-slot cycle
// the channel is saturated with interference, so every listener reads 1
// regardless of what was sent. It is deterministic — no randomness at
// all — and unbudgeted; its worst-case rate is the duty fraction.
type Jam struct {
	Duty   int // jammed slots per cycle
	Period int // cycle length
}

func (m Jam) Name() string { return NameJam }
func (m Jam) Spec() string {
	return NameJam + ":" + strconv.Itoa(m.Duty) + ":" + strconv.Itoa(m.Period)
}

func (m Jam) Validate() error {
	if m.Period < 1 {
		return fmt.Errorf("noise: %s: period %d < 1", NameJam, m.Period)
	}
	if m.Duty < 0 || m.Duty > m.Period {
		return fmt.Errorf("noise: %s: duty %d outside [0, period %d]", NameJam, m.Duty, m.Period)
	}
	if rate := float64(m.Duty) / float64(m.Period); rate >= 0.5 {
		return fmt.Errorf("noise: %s: duty fraction %v outside [0, 0.5)", NameJam, rate)
	}
	return nil
}

// FlipRates: a jammed silent slot reads 1 (p01 = duty fraction); a
// beeped slot already carries energy, so jamming never flips a 1.
func (m Jam) FlipRates() (p01, p10 float64) {
	return float64(m.Duty) / float64(m.Period), 0
}

func (m Jam) Noiseless() bool { return m.Duty == 0 }

// WorstCaseRate implements WorstCase: the duty fraction is both the
// marginal and the worst-case per-window rate (the schedule is
// periodic, not bursty beyond its cycle).
func (m Jam) WorstCaseRate() float64 { return float64(m.Duty) / float64(m.Period) }

// Sampler: the jammer is global and deterministic, so every listener
// shares one schedule and no randomness is consumed on any path.
func (m Jam) Sampler(seed uint64, node int) Sampler {
	return jamSampler{duty: m.Duty, period: m.Period}
}

type jamSampler struct{ duty, period int }

func (s jamSampler) jammed(t int) bool { return t%s.period < s.duty }

func (s jamSampler) ApplyInto(words []uint64, start, end int) {
	for t := start; t < end; t++ {
		if s.jammed(t) {
			i := t - start
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

func (s jamSampler) FlipAt(t int, bit bool) bool {
	return s.jammed(t) && !bit
}
