// Package noise defines the pluggable channel-noise models of the
// beeping network. The source paper analyzes one channel — every
// received bit flips independently with a single rate ε — but the model
// it builds on (Ashkenazi, Gelles & Leshem's noisy beeping networks)
// explicitly allows sender/receiver-side imperfections and
// direction-dependent error, and real beeping devices see interference
// that is bursty, not i.i.d. This package makes the channel an axis:
//
//   - symmetric{ε}        — the paper's binary symmetric channel;
//   - asymmetric{p01,p10} — false positives (silence heard as a beep)
//     and missed beeps at independent rates, conditioned on the
//     pre-noise bit;
//   - erasure{q,readAs}   — a slot is lost with probability q and reads
//     as a configurable constant (the receiver's erasure policy);
//   - gilbert-elliott{pGood,pBad,pG→B,pB→G} — correlated burst noise: a
//     per-node two-state Markov chain whose state selects the flip rate.
//
// A Model is a pure description (validatable, canonically
// serializable via Spec, registered by name for parsing); a Sampler is
// the model bound to one listener's private randomness. Samplers expose
// the same two execution paths the beep layer has always had: a
// word-parallel ApplyInto batch path mirroring rng.FlipSampler's
// XorFlipsInto for windowed phases, and a slot-serial FlipAt path for
// the round-by-round driver. The two paths consume the underlying
// stream identically, so they are interchangeable mid-run — the
// package tests pin ApplyInto ≡ FlipAt bit-for-bit per model.
//
// Determinism contract: a sampler is a pure function of (model, seed,
// node). The symmetric model's sampler derives its stream and consumes
// it exactly as the beep layer's original ε channel did, so every
// pre-existing record and experiment table is byte-identical under
// noise=symmetric.
package noise

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/rng"
)

// Model is one channel-noise model: a validated, canonically named
// parameterization from which per-listener samplers derive.
type Model interface {
	// Name is the model's registry key.
	Name() string
	// Spec returns the canonical spec string (Name plus colon-separated
	// parameters); Parse(Spec()) reconstructs an equal model. Canonical
	// means byte-stable: equal models always render equal specs, which
	// is what lets scenario content hashes treat the spec as identity.
	Spec() string
	// Validate checks the parameters.
	Validate() error
	// FlipRates returns the marginal per-slot error rates (p01, p10):
	// the stationary probability that a pre-noise 0 is received as 1,
	// and that a pre-noise 1 is received as 0. Decoder thresholds and
	// repetition factors calibrate against these; for correlated models
	// they are the long-run averages, deliberately blind to burstiness.
	FlipRates() (p01, p10 float64)
	// Noiseless reports that the channel can never flip any bit, in any
	// reachable state — engines skip sampler work entirely when true.
	// This is stricter than FlipRates() == (0, 0): a correlated model
	// whose stationary distribution forgets a transient state must
	// still report false if that state flips bits.
	Noiseless() bool
	// Sampler binds the model to listener node's private randomness
	// under seed. Samplers are single-listener, single-goroutine state;
	// distinct nodes' samplers are independent and may run concurrently.
	Sampler(seed uint64, node int) Sampler
}

// Sampler applies one listener's channel noise. Both paths consume the
// sampler's randomness for every slot they pass over, so noise
// downstream of a window never depends on what the window contained.
// Every slot is noisy, a beeping node's own slots included: its own
// reception goes through the channel (the paper's §1.5 convention).
type Sampler interface {
	// ApplyInto perturbs the pre-noise reception words for absolute
	// slots [start, end): slot abs is bit abs-start. Slots before start
	// that the sampler has not yet passed are consumed and discarded,
	// exactly like rng.FlipSampler.XorFlipsInto.
	ApplyInto(words []uint64, start, end int)
	// FlipAt reports whether the reception at absolute slot t — whose
	// pre-noise value is bit — flips. It must consume randomness
	// identically to ApplyInto covering t.
	FlipAt(t int, bit bool) bool
}

// streamKey is the split domain of per-node channel noise. It is the
// key the beep layer has always used, so the symmetric model's stream
// is bit-for-bit the original channel stream.
const streamKey = 0x6e6f697365 // "noise"

// baseStream derives a listener's root noise stream.
func baseStream(seed uint64, node int) *rng.Stream {
	return rng.New(seed).Split(streamKey, uint64(node))
}

// subStream derives an independent per-purpose stream for models that
// need more than one (e.g. the asymmetric model's two flip processes).
func subStream(seed uint64, node int, purpose uint64) *rng.Stream {
	return rng.New(seed).Split(streamKey, uint64(node), purpose)
}

// Noiseless reports whether the model's channel never flips a bit, so
// engines can skip sampler work entirely (Model.Noiseless).
func Noiseless(m Model) bool { return m.Noiseless() }

// --- registry and spec parsing ---

// parser builds a model from the raw colon-separated arguments of a
// spec string; arity and argument syntax are checked by the parser
// itself. Most models take purely numeric arguments and register
// through Register's float-converting wrapper; models with symbolic
// arguments (the adversary's strategy name) register raw via
// RegisterSpec.
type parser func(args []string) (Model, error)

var (
	regMu   sync.RWMutex
	parsers = map[string]parser{}
)

// Register adds a numeric-argument model parser under name: every spec
// argument is converted to float64 before p runs, matching the historic
// parser contract.
func Register(name string, p func(args []float64) (Model, error)) {
	RegisterSpec(name, func(args []string) (Model, error) {
		fargs := make([]float64, 0, len(args))
		for _, a := range args {
			v, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return nil, fmt.Errorf("noise: model %q: bad parameter %q", name, a)
			}
			fargs = append(fargs, v)
		}
		return p(fargs)
	})
}

// RegisterSpec adds a raw-argument model parser under name. Like the
// sim registries it panics on duplicates: registration is an init-time,
// programmer-controlled act.
func RegisterSpec(name string, p parser) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := parsers[name]; dup {
		panic(fmt.Sprintf("noise: duplicate model %q", name))
	}
	parsers[name] = p
}

// Names returns the registered model names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(parsers))
	for n := range parsers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse builds a validated model from a spec string of the form
// "name:arg1:arg2:…" (colon-separated so specs compose with
// comma-separated CLI axis lists). The returned model's Spec() is the
// canonical form of the input, which may differ from the input's
// spelling (e.g. "0.10" renders as "0.1").
func Parse(spec string) (Model, error) {
	parts := strings.Split(spec, ":")
	name := parts[0]
	regMu.RLock()
	p, ok := parsers[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("noise: unknown model %q in spec %q (registered: %s)", name, spec, strings.Join(Names(), ", "))
	}
	m, err := p(parts[1:])
	if err != nil {
		return nil, specError(spec, err)
	}
	if err := m.Validate(); err != nil {
		return nil, specError(spec, err)
	}
	return m, nil
}

// specError ties a parse or validation failure back to the offending
// spec and the registry. The bare arity/range messages don't say which
// spec produced them, and in a multi-axis grid with a dozen channel
// specs that context is the whole diagnosis.
func specError(spec string, err error) error {
	return fmt.Errorf("%w (offending spec %q; registered: %s)", err, spec, strings.Join(Names(), ", "))
}

// fmtF renders a parameter with the shortest exact representation, the
// same rule encoding/json uses — one spelling per value, so canonical
// specs are byte-stable.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func arity(name string, args []float64, want int) error {
	if len(args) != want {
		return fmt.Errorf("noise: model %q takes %d parameters, got %d", name, want, len(args))
	}
	return nil
}

func probRange(name, param string, v, hi float64) error {
	if v < 0 || v > hi || v != v {
		return fmt.Errorf("noise: %s: %s = %v outside [0, %v]", name, param, v, hi)
	}
	return nil
}
