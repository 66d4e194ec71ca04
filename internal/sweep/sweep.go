// Package sweep is the batch scenario-orchestration layer between the
// engines and the experiment tables: it enumerates families of scenarios
// (graph family × size × degree × noise × engine × workload × replicate),
// schedules them concurrently, persists every result as one JSONL record
// keyed by a content hash of the scenario spec, and aggregates records
// across grid axes.
//
// The paper's claims are statements over scenario families — Theorem 11's
// overhead across (n, Δ, ε), the §1.3 gap versus the TDMA baseline across
// topologies, the §7 native-vs-simulated comparison — so the unit of work
// here is the declarative Scenario spec, not a prebuilt graph or engine.
// Everything a run needs (including every seed) lives in the spec; two
// runs of the same spec are bit-identical, which is what makes the
// content-addressed store (store.go) a cache: re-running an overlapping
// grid skips every scenario whose hash is already on disk, and an
// interrupted batch resumes for free.
//
// The layers, bottom up: Scenario (this file) — the spec and its hash;
// execute (exec.go) — a lane group of specs to their Records; Store
// (store.go) — the JSONL result store; Service (service.go) — the
// scheduler, with lane groups and request-level singleflight, and Run
// (batch.go), one job on a short-lived Service; Grid (grid.go) —
// declarative axis expansion; Aggregate (agg.go) — group-by with
// replicate statistics. internal/experiments routes its scenario-shaped
// tables (T3, T4, T6, T8, T9, T11, A4) through this package.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Graph families a Scenario can name. Param is the family parameter:
// Δ for FamilyRegular/FamilyBounded, q for FamilyPG, the side length for
// FamilyGrid, the dimension for FamilyHypercube, and Δ for FamilyHard
// (the K_{Δ,Δ}-plus-isolated-vertices Lemma 14 instance).
const (
	FamilyRegular   = "regular"   // random Δ-regular (bounded-degree fallback when nΔ is odd)
	FamilyBounded   = "bounded"   // random bounded-degree G(n,p=0.5)
	FamilyPG        = "pg"        // projective-plane incidence PG(2,q); N is derived
	FamilyGrid      = "grid"      // Param×Param grid; N is derived
	FamilyHypercube = "hypercube" // Param-dimensional hypercube; N is derived
	FamilyHard      = "hard"      // Lemma 14 hard instance on N nodes
	FamilyComplete  = "complete"  // K_N
	// FamilyGeo is the jittered-lattice random geometric graph on N ≥ 17
	// nodes (graph.GeometricCells): connected for every seed, Δ ≤ 24, and
	// built by the streaming sharded generator — the million-node family.
	FamilyGeo = "geo"
)

// Engines a Scenario can run on: the internal/sim engine registry,
// whose canonical names are re-exported here so the spec vocabulary
// (and every content hash derived from it) is stable.
const (
	EngineAlg1    = sim.EngineAlg1    // the paper's Algorithm 1 simulation (internal/core)
	EngineTDMA    = sim.EngineTDMA    // prior-work G²-coloring baseline (internal/baseline)
	EngineCongest = sim.EngineCongest // native Broadcast CONGEST (internal/congest), no beeps
	EngineBeep    = sim.EngineBeep    // native beeping algorithm (internal/beepalgs)
)

// Workloads a Scenario can execute: the internal/sim workload registry.
const (
	WorkloadGossip   = sim.WorkloadGossip   // ID broadcast every round — the canonical one-round probe
	WorkloadMIS      = sim.WorkloadMIS      // maximal independent set (Luby over CONGEST, Afek et al. natively)
	WorkloadColoring = sim.WorkloadColoring // randomized (Δ+1)-coloring
	WorkloadLeader   = sim.WorkloadLeader   // max-ID leader election by flooding
	WorkloadMatching = sim.WorkloadMatching // the paper's §6 maximal matching
	WorkloadBFSTree  = sim.WorkloadBFSTree  // BFS tree from node 0
	// WorkloadBroadcast is single-source payload flooding from node 0,
	// run natively as the sparse O(D + b) beep wave.
	WorkloadBroadcast = sim.WorkloadBroadcast
)

// Scenario is one fully-specified run: the declarative unit the sweep
// subsystem enumerates, hashes, executes, and stores. Every input —
// including all three seeds — is part of the spec, so the spec hash is a
// complete identity for the result and cached records never go stale.
type Scenario struct {
	// Family selects the graph family (Family* constants).
	Family string `json:"family"`
	// N is the node count; ignored (and normalized to 0 by Validate's
	// contract) for families that derive it from Param.
	N int `json:"n,omitempty"`
	// Param is the family parameter (see the Family* comments).
	Param int `json:"param,omitempty"`
	// Epsilon is the beeping-channel noise rate. The native engines
	// (congest, beep) have no beeping channel and ignore it — keep it 0
	// there (Grid.Expand normalizes this) so equal work shares one hash.
	Epsilon float64 `json:"epsilon"`
	// Noise selects a non-default channel-noise model by canonical
	// internal/noise spec (e.g. "gilbert-elliott:0.01:0.3:0.05:0.25").
	// Empty — the only spelling for the symmetric channel, which Epsilon
	// parameterizes — keeps every pre-noise-axis spec, hash, and stored
	// record byte-identical. A non-empty spec owns the channel: Epsilon
	// must be 0 (the model's own parameters replace it), the engine must
	// simulate over beeps (sim.SupportsNoise), and the spec must be in
	// canonical form so equal channels share one hash.
	Noise string `json:"noise,omitempty"`
	// Engine selects the execution engine (Engine* constants).
	Engine string `json:"engine"`
	// Workload selects the per-node algorithm (Workload* constants).
	Workload string `json:"workload"`
	// Rounds is the simulated-round count for rounds-parameterized
	// workloads (gossip, whose budget is Rounds+2). Self-budgeting
	// workloads — everything whose registered sim.Workload reports
	// UsesRounds() false: mis, coloring, leader, matching, bfstree —
	// size their own budgets and require Rounds 0.
	Rounds int `json:"rounds,omitempty"`
	// MsgBits is the CONGEST bandwidth, at most MaxMsgBits; 0 selects
	// the workload's registered default (e.g. 2·⌈log₂n⌉ for gossip, each
	// algorithm package's MsgBits for the rest).
	MsgBits int `json:"msg_bits,omitempty"`
	// Replicate tags seed replicates expanded from a Grid; informational
	// (the seeds below already differ per replicate) but part of the hash.
	Replicate int `json:"replicate,omitempty"`
	// GraphSeed drives the graph generator; ChannelSeed the channel noise
	// (ignored, like Epsilon, by the native engines — keep it 0 there);
	// AlgSeed the algorithms' private randomness (and the native beeping
	// run, which has no separate channel stream).
	GraphSeed   uint64 `json:"graph_seed"`
	ChannelSeed uint64 `json:"channel_seed"`
	AlgSeed     uint64 `json:"alg_seed"`
}

// derivedN reports whether the family derives the node count from Param.
func derivedN(family string) bool {
	switch family {
	case FamilyPG, FamilyGrid, FamilyHypercube:
		return true
	}
	return false
}

// MaxMsgBits bounds Scenario.MsgBits. A run's memory grows with the
// bandwidth, and a width in the billions ends the process with an
// out-of-memory error that no recover catches. The bound is 46 times the
// widest workload default: matching's 2 + 2·⌈log₂n⌉ + 24 = 88 bits at
// n = graph.MaxVertices.
const MaxMsgBits = 4096

// MaxGraphEntries bounds the CSR entries, vertices plus directed edges,
// of a scenario's graph: 2²⁸ int32 entries, 1 GiB. Building a graph past
// it can end the process with an out-of-memory error that no recover
// catches, so Validate refuses the spec first. The geo family at
// n = 10⁷ still fits.
const MaxGraphEntries = 1 << 28

// graphEntries returns the vertex count of the scenario's graph plus
// its family's bound on directed edges. It computes in float64, which
// is exact below 2⁵³ and rounds monotonically above, so comparing the
// result with MaxGraphEntries decides exactly and no product overflows.
func (sc Scenario) graphEntries() float64 {
	n, p := float64(sc.N), float64(sc.Param)
	switch sc.Family {
	case FamilyRegular, FamilyBounded:
		return n + n*p
	case FamilyHard:
		return n + 2*p*p // K_{Δ,Δ} plus isolated vertices
	case FamilyComplete:
		return n + n*(n-1)
	case FamilyGeo:
		return n + 24*n
	case FamilyGrid:
		return p*p + 4*p*p
	case FamilyHypercube:
		return math.Ldexp(1+p, sc.Param) // 2^Param vertices of degree Param
	case FamilyPG:
		return 2*(p*p+p+1) + 2*(p+1)*(p*p+p+1)
	}
	return 0
}

// Supports reports whether the engine can execute the workload, per the
// internal/sim registries: the native beeping engine runs exactly the
// workloads with a native beeping implementation (sim.NativeBeeper),
// and every CONGEST-level engine runs every registered workload.
func Supports(engine, workload string) bool { return sim.Supports(engine, workload) }

// Validate checks the spec is executable.
func (sc Scenario) Validate() error {
	switch sc.Family {
	case FamilyRegular, FamilyBounded, FamilyHard:
		if sc.N < 2 || sc.Param < 1 {
			return fmt.Errorf("sweep: family %q needs N ≥ 2 and Param ≥ 1, got N=%d Param=%d", sc.Family, sc.N, sc.Param)
		}
	case FamilyComplete:
		if sc.N < 2 {
			return fmt.Errorf("sweep: family %q needs N ≥ 2, got %d", sc.Family, sc.N)
		}
	case FamilyGeo:
		if sc.N < 17 {
			return fmt.Errorf("sweep: family %q needs N ≥ 17 (lattice side ≥ 5), got %d", sc.Family, sc.N)
		}
		if sc.Param != 0 {
			return fmt.Errorf("sweep: family %q has no parameter; set Param = 0, got %d", sc.Family, sc.Param)
		}
	case FamilyPG, FamilyGrid, FamilyHypercube:
		if sc.Param < 1 {
			return fmt.Errorf("sweep: family %q needs Param ≥ 1, got %d", sc.Family, sc.Param)
		}
		if sc.N != 0 {
			return fmt.Errorf("sweep: family %q derives N from Param; set N = 0, got %d", sc.Family, sc.N)
		}
	default:
		return fmt.Errorf("sweep: unknown family %q", sc.Family)
	}
	if sc.graphEntries() > MaxGraphEntries {
		return fmt.Errorf("sweep: family %q with N = %d and Param = %d needs more than %d graph entries (vertices plus directed edges)", sc.Family, sc.N, sc.Param, MaxGraphEntries)
	}
	wl, ok := sim.WorkloadFor(sc.Workload)
	if !ok {
		return fmt.Errorf("sweep: unknown workload %q", sc.Workload)
	}
	if _, ok := sim.EngineFor(sc.Engine); !ok {
		return fmt.Errorf("sweep: unknown engine %q", sc.Engine)
	}
	if !Supports(sc.Engine, sc.Workload) {
		return fmt.Errorf("sweep: engine %q does not support workload %q", sc.Engine, sc.Workload)
	}
	if wl.UsesRounds() {
		if sc.Rounds < 1 {
			return fmt.Errorf("sweep: workload %s needs Rounds ≥ 1, got %d", sc.Workload, sc.Rounds)
		}
	} else if sc.Rounds != 0 {
		return fmt.Errorf("sweep: workload %s sizes its own budget; set Rounds = 0, got %d", sc.Workload, sc.Rounds)
	}
	if !noise.ValidRate(sc.Epsilon) {
		return fmt.Errorf("sweep: ε = %v outside [0, 0.5)", sc.Epsilon)
	}
	if sc.Noise != "" {
		m, err := noise.Parse(sc.Noise)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if m.Name() == noise.NameSymmetric {
			return fmt.Errorf("sweep: the symmetric channel is the Epsilon field; leave Noise empty")
		}
		if spec := m.Spec(); spec != sc.Noise {
			return fmt.Errorf("sweep: noise spec %q is not canonical (want %q)", sc.Noise, spec)
		}
		if sc.Epsilon != 0 {
			return fmt.Errorf("sweep: Noise %s owns the channel; set Epsilon = 0, got %v", sc.Noise, sc.Epsilon)
		}
		if !sim.SupportsNoise(sc.Engine, sc.Noise) {
			return fmt.Errorf("sweep: engine %q does not support channel model %q", sc.Engine, sc.Noise)
		}
	}
	if sc.MsgBits < 0 || sc.MsgBits > MaxMsgBits {
		return fmt.Errorf("sweep: MsgBits = %d outside [0, %d]", sc.MsgBits, MaxMsgBits)
	}
	return nil
}

// Hash returns the scenario's content address: the first 128 bits (32
// hex characters) of the SHA-256 of the canonical JSON encoding of the
// spec (struct field order, shortest float representation — both
// deterministic in encoding/json). Any single-field change produces a
// different hash; equal specs always hash equal.
func (sc Scenario) Hash() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// Marshal fails only on a NaN or infinite float. Epsilon is the
		// only float, and Validate keeps it in [0, ½), so Hash of a
		// validated scenario cannot fail.
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// buildGraphCached is BuildGraphWorkers through the batch artifact cache:
// the graph is a pure function of (Family, N, Param) and, where
// graphSeedMatters, GraphSeed — exactly a sim.GraphKey, with the worker
// count byte-invisible by the streaming builder's contract — so
// scenarios differing only in other axes share one instance. A nil
// cache builds directly.
func (sc Scenario) buildGraphCached(cache *sim.Cache, workers int) (*graph.Graph, error) {
	key := sim.GraphKey{Family: sc.Family, N: sc.N, Param: sc.Param}
	if graphSeedMatters(sc.Family) {
		key.Seed = sc.GraphSeed
	}
	return cache.Graph(key, func() (*graph.Graph, error) { return sc.BuildGraphWorkers(workers) })
}

// BuildGraph constructs the scenario's graph from Family, N, Param, and
// GraphSeed alone, serially.
func (sc Scenario) BuildGraph() (*graph.Graph, error) { return sc.BuildGraphWorkers(1) }

// BuildGraphWorkers is BuildGraph on an engine pool of the given width
// (0 or 1 serial, engine.AutoWorkers one per CPU; execute passes
// ExecOptions.Workers) for the streaming (row-function) families — grid,
// hypercube, hard, complete, geo — byte-identical at every width. The
// edge-list families (regular, bounded, pg) draw from a sequential
// stream and always build serially.
func (sc Scenario) BuildGraphWorkers(workers int) (*graph.Graph, error) {
	switch sc.Family {
	case FamilyRegular:
		// Δ-regular when realizable, bounded-degree otherwise — the same
		// fallback the experiment harness has always used, so refactored
		// tables reproduce their pre-sweep graphs exactly.
		if (sc.N*sc.Param)%2 == 0 {
			return graph.RandomRegular(sc.N, sc.Param, rng.New(sc.GraphSeed))
		}
		return graph.RandomBoundedDegree(sc.N, sc.Param, 0.5, rng.New(sc.GraphSeed)), nil
	case FamilyBounded:
		return graph.RandomBoundedDegree(sc.N, sc.Param, 0.5, rng.New(sc.GraphSeed)), nil
	case FamilyPG:
		return graph.ProjectivePlaneIncidence(sc.Param)
	case FamilyGrid:
		return graph.FromRowFunc(sc.Param*sc.Param, graph.GridRows(sc.Param, sc.Param), workers)
	case FamilyHypercube:
		return graph.FromRowFunc(1<<uint(sc.Param), graph.HypercubeRows(sc.Param), workers)
	case FamilyHard:
		if sc.Param < 1 || 2*sc.Param > sc.N {
			return nil, fmt.Errorf("graph: hard instance needs 1 <= Δ and 2Δ <= n, got n=%d Δ=%d", sc.N, sc.Param)
		}
		return graph.FromRowFunc(sc.N, graph.HardInstanceRows(sc.N, sc.Param), workers)
	case FamilyComplete:
		return graph.FromRowFunc(sc.N, graph.CompleteRows(sc.N), workers)
	case FamilyGeo:
		return graph.GeometricCells(sc.N, sc.GraphSeed, workers)
	}
	return nil, fmt.Errorf("sweep: unknown family %q", sc.Family)
}
