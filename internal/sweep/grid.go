package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Grid is a declarative scenario family: the cross product of its axes.
// Expand enumerates it into concrete Scenario specs in a deterministic
// order, deriving every seed from BaseSeed and the scenario's own axis
// values — never from its position in the enumeration — so adding an
// axis value to a grid leaves every pre-existing scenario's spec (and
// therefore its content hash, and therefore its cache entry) unchanged.
// Its JSON form is sweepd's POST /grids body.
type Grid struct {
	// Families, Ns, Params, Epsilons, Engines, Workloads are the axes;
	// empty axes default to {FamilyRegular}, {64}, {4}, {0.05},
	// {EngineAlg1}, {WorkloadGossip} respectively. For families that
	// derive N from Param (pg, grid, hypercube) the Ns axis is ignored.
	Families  []string  `json:"families,omitempty"`
	Ns        []int     `json:"ns,omitempty"`
	Params    []int     `json:"params,omitempty"`
	Epsilons  []float64 `json:"epsilons,omitempty"`
	Engines   []string  `json:"engines,omitempty"`
	Workloads []string  `json:"workloads,omitempty"`
	// Noises lists channel-noise models (internal/noise specs). "" and
	// "symmetric" both select the default symmetric channel, which the
	// Epsilons axis parameterizes; any other spec owns the channel, so
	// the ε axis collapses for it (like the native engines' ε) and the
	// spec is canonicalized before hashing. Empty axis = symmetric only.
	Noises []string `json:"noises,omitempty"`
	// Rounds is the gossip round count (default 3); MsgBits overrides
	// the workload's bandwidth default when nonzero.
	Rounds  int `json:"rounds,omitempty"`
	MsgBits int `json:"msg_bits,omitempty"`
	// Replicates repeats every axis point with distinct seeds (default 1).
	Replicates int `json:"replicates,omitempty"`
	// BaseSeed roots every derived seed.
	BaseSeed uint64 `json:"base_seed,omitempty"`
}

// Seed-derivation domains: graph seeds are shared across engines,
// workloads, and noise rates (comparisons and ε sweeps run on the same
// topology), algorithm seeds are shared across engines and noise rates
// (the same algorithm randomness under every engine, as the
// native-vs-simulated tables require), and channel seeds are private to
// the full axis point — only the channel sees ε.
const (
	seedDomGraph   = 0x677261 // "gra"
	seedDomChannel = 0x636863 // "chc"
	seedDomAlg     = 0x616c67 // "alg"
)

// fold hashes a short string into a seed-mixing key (FNV-1a).
func fold(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Expand enumerates the grid. Axis order (outer to inner): workload,
// family, engine, noise, n, param, epsilon, replicate. A workload or
// engine that no registry holds is refused, naming the known ones;
// known pairs the engine does not support (Supports) are skipped. Axis
// normalization — native engines ignore ε, the channel seed, and the
// noise model; non-symmetric models ignore ε — can map distinct grid
// points onto one spec, and Expand deduplicates them by content hash
// (first occurrence wins), so a grid never attributes one execution to
// two different axis labels. Expand fails if any produced spec is
// invalid or the grid expands to nothing.
func (g Grid) Expand() ([]Scenario, error) {
	a := g.axes()
	noises, err := canonicalNoises(a.noises)
	if err != nil {
		return nil, err
	}
	for _, wl := range a.workloads {
		if _, ok := sim.WorkloadFor(wl); !ok {
			return nil, fmt.Errorf("sweep: unknown workload %q (have %s)", wl, strings.Join(sim.WorkloadNames(), ", "))
		}
	}
	for _, eng := range a.engines {
		if _, ok := sim.EngineFor(eng); !ok {
			return nil, fmt.Errorf("sweep: unknown engine %q (have %s)", eng, strings.Join(sim.EngineNames(), ", "))
		}
	}

	var out []Scenario
	seen := make(map[string]struct{})
	for _, wl := range a.workloads {
		wlRounds := a.rounds
		if w, _ := sim.WorkloadFor(wl); !w.UsesRounds() {
			wlRounds = 0 // self-budgeting workloads require Rounds 0 (Scenario contract)
		}
		for _, fam := range a.families {
			famNs, famParams := a.familyAxes(fam)
			for _, eng := range a.engines {
				if !Supports(eng, wl) {
					continue
				}
				native := sim.IsNative(eng)
				for _, noiseSpec := range noises {
					for _, n := range famNs {
						for _, param := range famParams {
							for _, gridEps := range a.epsilons {
								// Native engines have no beeping channel to
								// perturb: they ignore ε, the channel seed,
								// and the noise model, so normalize all
								// three to their zero values. A non-default
								// noise model owns the channel, so ε
								// normalizes to zero under it too. Either
								// way, grid points that differ only in
								// normalized axes collapse onto one spec,
								// and the hash dedup below keeps a single
								// copy instead of attributing one noiseless
								// (or one model-noise) execution to several
								// ε labels.
								eps, ns := gridEps, noiseSpec
								if native {
									eps, ns = 0, ""
								}
								if ns != "" {
									eps = 0
								}
								for rep := 0; rep < a.replicates; rep++ {
									point := []uint64{g.BaseSeed, fold(fam), uint64(n), uint64(param), uint64(rep)}
									chanKeys := []uint64{seedDomChannel, fold(eng), fold(wl), math.Float64bits(eps)}
									if ns != "" {
										// The model joins the channel-seed
										// derivation the way ε always has;
										// symmetric runs keep the historic
										// key sequence bit-for-bit.
										chanKeys = append(chanKeys, fold(ns))
									}
									sc := Scenario{
										Family:      fam,
										N:           n,
										Param:       param,
										Epsilon:     eps,
										Noise:       ns,
										Engine:      eng,
										Workload:    wl,
										Rounds:      wlRounds,
										MsgBits:     g.MsgBits,
										Replicate:   rep,
										GraphSeed:   rng.Mix(append([]uint64{seedDomGraph}, point...)...),
										ChannelSeed: rng.Mix(append(chanKeys, point...)...),
										AlgSeed:     rng.Mix(append([]uint64{seedDomAlg, fold(wl)}, point...)...),
									}
									if native {
										sc.ChannelSeed = 0
									}
									if err := sc.Validate(); err != nil {
										return nil, fmt.Errorf("sweep: grid point %+v: %w", sc, err)
									}
									h := sc.Hash()
									if _, dup := seen[h]; dup {
										continue
									}
									seen[h] = struct{}{}
									out = append(out, sc)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: grid expands to no supported scenarios")
	}
	return out, nil
}

// Size bounds len(Expand()) from the axis lengths alone, so a caller can
// refuse an oversized grid before expanding it: unsupported
// engine/workload pairs are left out, the hash dedup is not. It
// saturates at math.MaxInt.
func (g Grid) Size() int {
	a := g.axes()
	size := 0
	for _, fam := range a.families {
		ns, params := a.familyAxes(fam)
		size += len(ns) * len(params)
	}
	pairs := 0
	for _, wl := range a.workloads {
		for _, eng := range a.engines {
			if Supports(eng, wl) {
				pairs++
			}
		}
	}
	// The factors that can be zero come first, so a zero is never
	// masked by an earlier saturation.
	for _, f := range []int{pairs, max(a.replicates, 0), len(a.noises), len(a.epsilons)} {
		if f != 0 && size > math.MaxInt/f {
			return math.MaxInt
		}
		size *= f
	}
	return size
}

// gridAxes is a Grid with every empty axis defaulted: the one place the
// defaults live, shared by Expand and Size.
type gridAxes struct {
	families, engines, workloads, noises []string
	ns, params                           []int
	epsilons                             []float64
	rounds, replicates                   int
}

func (g Grid) axes() gridAxes {
	a := gridAxes{
		families:   defaulted(g.Families, FamilyRegular),
		engines:    defaulted(g.Engines, EngineAlg1),
		workloads:  defaulted(g.Workloads, WorkloadGossip),
		noises:     defaulted(g.Noises, ""),
		ns:         defaultedInts(g.Ns, 64),
		params:     defaultedInts(g.Params, 4),
		epsilons:   g.Epsilons,
		rounds:     g.Rounds,
		replicates: g.Replicates,
	}
	if len(a.epsilons) == 0 {
		a.epsilons = []float64{0.05}
	}
	if a.rounds == 0 {
		a.rounds = 3
	}
	if a.replicates == 0 {
		a.replicates = 1
	}
	return a
}

// familyAxes returns the n and param axes fam enumerates: families that
// derive N from Param ignore the Ns axis, and geo is parameterless
// (Scenario contract: Param = 0), so the Params axis collapses for it.
func (a gridAxes) familyAxes(fam string) (ns, params []int) {
	ns, params = a.ns, a.params
	if derivedN(fam) {
		ns = []int{0}
	}
	if fam == FamilyGeo {
		params = []int{0}
	}
	return ns, params
}

// canonicalNoises normalizes the noise axis: "" and "symmetric" mean
// the default symmetric channel (spelled as the empty spec, so Epsilon
// stays the channel identity); other entries must parse and are
// replaced by their canonical spelling. Duplicate entries after
// canonicalization are rejected — they would be a silently collapsed
// axis, which is almost certainly a typo.
func canonicalNoises(specs []string) ([]string, error) {
	out := make([]string, 0, len(specs))
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		canon := ""
		if s != "" && s != noise.NameSymmetric {
			m, err := noise.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("sweep: noise axis: %w", err)
			}
			if m.Name() == noise.NameSymmetric {
				return nil, fmt.Errorf("sweep: noise axis %q: parameterize the symmetric channel with the ε axis", s)
			}
			canon = m.Spec()
		}
		if _, dup := seen[canon]; dup {
			return nil, fmt.Errorf("sweep: noise axis lists %q twice", canon)
		}
		seen[canon] = struct{}{}
		out = append(out, canon)
	}
	return out, nil
}

func defaulted(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	return xs
}

func defaultedInts(xs []int, def int) []int {
	if len(xs) == 0 {
		return []int{def}
	}
	return xs
}
