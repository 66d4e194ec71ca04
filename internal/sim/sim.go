// Package sim is the pluggable execution layer between the scenario
// vocabulary (internal/sweep) and the engines and algorithms that do the
// work. The paper's headline result is a *generic* simulator — any
// Broadcast CONGEST algorithm runs over noisy beeps with bounded
// overhead — so "any algorithm × any engine" is a first-class axis here:
//
//   - An Engine adapts one execution substrate (the paper's Algorithm 1,
//     the prior-work TDMA baseline, native Broadcast CONGEST, native
//     beeping) to a uniform Prepare/Run shape over 1 to Lanes replicates
//     of one scenario. Engine-specific outputs travel in a typed Extras
//     map instead of engine-specific plumbing.
//   - A Workload adapts one algorithm family (gossip, MIS, coloring,
//     leader election, maximal matching, BFS tree) to a uniform
//     bandwidth/budget/instances/verify shape.
//   - The package-level registries bind names to implementations, so the
//     sweep layer, the CLIs, and the tests all resolve the same
//     vocabulary; Supports is the single compatibility rule.
//   - A Cache (cache.go) shares the expensive pure-function artifacts —
//     graphs and code tables — across the scenarios of a batch.
//
// Everything here preserves the repository's determinism contract
// (DESIGN.md §4): engines and workloads derive all randomness from the
// seeds in Config, so a result is a pure function of
// (graph, Config, workload) regardless of Workers or cache hits.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
)

// Canonical engine names. These are the values scenario specs use; the
// sweep package re-exports them so existing spec vocabulary (and every
// content hash derived from it) is unchanged.
const (
	EngineAlg1    = "alg1"    // the paper's Algorithm 1 simulation (internal/core)
	EngineTDMA    = "tdma"    // prior-work G²-coloring baseline (internal/baseline)
	EngineCongest = "congest" // native Broadcast CONGEST (internal/congest), no beeps
	EngineBeep    = "beep"    // native beeping algorithm (internal/beepalgs)
)

// Canonical workload names.
const (
	WorkloadGossip   = "gossip"   // ID broadcast every round — the canonical one-round probe
	WorkloadMIS      = "mis"      // maximal independent set (Luby over CONGEST, Afek et al. natively)
	WorkloadColoring = "coloring" // randomized (Δ+1)-coloring
	WorkloadLeader   = "leader"   // max-ID leader election by flooding
	WorkloadMatching = "matching" // the paper's §6 maximal matching (Algorithm 3)
	WorkloadBFSTree  = "bfstree"  // BFS tree from node 0
	// WorkloadBroadcast is single-source payload flooding from node 0,
	// with the O(D + b) beep-wave protocol as the native implementation.
	WorkloadBroadcast = "broadcast"
)

// Extras carries engine-specific measurements out of an Instance run —
// values only some engines produce (TDMA schedule parameters, native
// message counts) — under well-known keys, so the record layer stores
// them uniformly without knowing engine internals. A nil map means
// "nothing extra".
type Extras map[string]int64

// Well-known Extras keys.
const (
	// ExtraColors is the TDMA schedule length (G² color classes).
	ExtraColors = "colors"
	// ExtraRho is the TDMA per-bit repetition count.
	ExtraRho = "rho"
	// ExtraSetupRounds is the TDMA estimated distributed-setup cost.
	ExtraSetupRounds = "setup_rounds"
	// ExtraMessages is the native CONGEST engines' message count.
	ExtraMessages = "messages"
)

// Config is everything an Engine needs to prepare an execution besides
// the graph itself. All fields except Workers/Artifacts/Metrics are part
// of the result's identity; those never change results (the engines'
// pools are deterministic and cached artifacts are pure functions of
// their keys).
type Config struct {
	// MsgBits is the resolved Broadcast CONGEST bandwidth (the workload
	// default unless the scenario overrides it).
	MsgBits int
	// Channel is the beeping channel (internal/noise), resolved once
	// from the scenario: noise.Symmetric{Eps: ε} on the paper's channel,
	// else the parsed model. Nil is the noiseless channel. Native engines
	// have no beeping channel and ignore it.
	Channel noise.Model
	// ChannelSeed drives channel noise (ignored by native engines and by
	// channels that cannot flip a bit).
	ChannelSeed uint64
	// AlgSeeds holds one seed per lane, 1 to Engine.Lanes of them: lane
	// k's algorithms draw their private randomness from AlgSeeds[k], and
	// the native beeping run from its one seed.
	AlgSeeds []uint64
	// Workers configures the engine's deterministic worker pool (0 or
	// 1 = serial).
	Workers int
	// Workload is the resolved workload, for engines that execute the
	// workload natively rather than running its CONGEST instances (the
	// beep engine consults the NativeBeeper capability).
	Workload Workload
	// Rounds is the scenario's workload rounds knob, interpreted by the
	// workload (gossip's round count; 0 for self-budgeting workloads).
	Rounds int
	// Artifacts, when non-nil, shares graphs and code tables across the
	// scenarios of a batch.
	Artifacts *Cache
	// Metrics, when non-nil, receives observation-only instrumentation
	// from the engines that support it (phase timers, decode counters,
	// noise-flip accounting). Like Workers/Artifacts it is outside
	// the result's identity: telemetry never consumes algorithm or channel
	// randomness, so records are byte-identical with it on or off.
	Metrics *obs.Registry
}

// Instance is one prepared execution: an engine bound to a graph and a
// Config, ready to run.
type Instance interface {
	// Run drives lane k's per-node algorithms algs[k] for at most budget
	// engine rounds each and reports one result and one Extras per lane,
	// in the order of Config.AlgSeeds. Engines that execute the workload
	// natively (NativeBeeper) ignore algs and budget.
	Run(algs [][]congest.BroadcastAlgorithm, budget int) ([]*core.Result, []Extras, error)
}

// Engine is one registered execution substrate.
type Engine interface {
	// Name is the engine's registry key (Engine* constants).
	Name() string
	// Native reports that the engine has no beeping channel: the
	// channel and ChannelSeed are ignored, and grid expansion normalizes
	// ε and the seed to zero so equal work shares one scenario hash.
	Native() bool
	// Supports reports whether the engine can execute the workload.
	Supports(w Workload) bool
	// DrivesAlgs reports whether Run executes the workload's per-node
	// CONGEST instances. Engines that run the workload natively (beep,
	// via NativeBeeper) ignore them, and callers skip constructing
	// instances altogether.
	DrivesAlgs() bool
	// Lanes returns how many replicates of one scenario, differing only
	// in their seeds, one Instance can run together under cfg's channel
	// (1 to 64). Every lane's result must be bit-identical to a run of
	// that lane alone, so lanes are purely an execution detail —
	// records, hashes, and stores never see them.
	Lanes(cfg Config) int
	// Prepare binds the engine to a graph and configuration, one lane
	// per algorithm seed.
	Prepare(g *graph.Graph, cfg Config) (Instance, error)
}

// Workload is one registered algorithm family.
type Workload interface {
	// Name is the workload's registry key (Workload* constants).
	Name() string
	// MsgBits returns the bandwidth the workload needs on g.
	MsgBits(g *graph.Graph) int
	// UsesRounds reports whether the workload is parameterized by a
	// scenario round count (gossip); self-budgeting workloads require
	// the scenario's Rounds to be zero.
	UsesRounds() bool
	// Budget returns the engine round budget (rounds is the scenario
	// knob; ignored by self-budgeting workloads).
	Budget(g *graph.Graph, rounds int) int
	// Algs returns fresh per-node CONGEST instances.
	Algs(g *graph.Graph, rounds int) []congest.BroadcastAlgorithm
	// Verify checks the per-node outputs of a completed run: nil means
	// output-valid, ErrUnverified means the workload defines no
	// output-validity notion, an *OutputTypeError means the outputs had
	// the wrong dynamic type (a wiring bug, not an invalid output), and
	// any other error describes why the output is invalid.
	Verify(g *graph.Graph, outputs []any) error
}

// NativeBeeper is an optional Workload capability: a native beeping
// implementation (beeps only, no message passing). The beep engine runs
// exactly the workloads that implement it.
type NativeBeeper interface {
	// RunBeep executes the native protocol on a noiseless beeping
	// network seeded by seed and checks its typed outputs with the
	// check Verify applies to CONGEST outputs, reporting BeepRounds,
	// AllDone and that check's verdict as core.Result.Verdict; no
	// per-node output leaves the run. metrics, when non-nil, receives
	// the network's channel telemetry (observation-only, like
	// Config.Metrics).
	RunBeep(g *graph.Graph, seed uint64, metrics *obs.Registry) (*core.Result, error)
}

// Verdict returns the output check of one lane a prepared eng ran, with
// Workload.Verify's meaning. An engine that drives CONGEST instances
// reports per-node Outputs, which wl.Verify checks; the native beeping
// engine checked its typed outputs inside the run and reports
// res.Verdict. Either way the workload's one check decides.
func Verdict(eng Engine, wl Workload, g *graph.Graph, res *core.Result) error {
	if eng.DrivesAlgs() {
		return wl.Verify(g, res.Outputs)
	}
	return res.Verdict
}

// ErrUnverified is returned by Workload.Verify when the workload has no
// output-validity notion; callers leave their validity flag unset.
var ErrUnverified = errors.New("sim: workload defines no output-validity notion")

// OutputTypeError reports a per-node output with the wrong dynamic type
// — an engine/workload wiring bug surfaced as a typed, recoverable
// error instead of a panic inside a batch worker.
type OutputTypeError struct {
	// Workload is the verifying workload's name; Node the offending
	// node; Want the expected Go type; Got the value received.
	Workload string
	Node     int
	Want     string
	Got      any
}

func (e *OutputTypeError) Error() string {
	return fmt.Sprintf("sim: workload %q: node %d output is %T, want %s", e.Workload, e.Node, e.Got, e.Want)
}

// ProtocolBrokenError reports that a hostile channel (adversarial or
// jamming, noise.Hostile) exceeded what the protocol's calibration
// absorbs: the run terminated — never hung, never panicked — but its
// output failed verification or its round budget ran out. The failure
// is attributed to the channel, not the algorithm; frontier searches
// treat it as "this budget breaks this protocol".
type ProtocolBrokenError struct {
	// Workload and Engine name the broken scenario's protocol; Noise is
	// the hostile channel's canonical spec; Reason says how the break
	// surfaced (verification failure, round-budget exhaustion).
	Workload string
	Engine   string
	Noise    string
	Reason   string
}

func (e *ProtocolBrokenError) Error() string {
	return fmt.Sprintf("sim: protocol broken: workload %q on engine %q under channel %s: %s", e.Workload, e.Engine, e.Noise, e.Reason)
}

// --- registries ---

var (
	regMu     sync.RWMutex
	engines   = map[string]Engine{}
	workloads = map[string]Workload{}
)

// RegisterEngine adds e to the engine registry. It panics on a duplicate
// name (registration is an init-time, programmer-controlled act).
func RegisterEngine(e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := engines[e.Name()]; dup {
		panic(fmt.Sprintf("sim: duplicate engine %q", e.Name()))
	}
	engines[e.Name()] = e
}

// RegisterWorkload adds w to the workload registry. It panics on a
// duplicate name.
func RegisterWorkload(w Workload) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := workloads[w.Name()]; dup {
		panic(fmt.Sprintf("sim: duplicate workload %q", w.Name()))
	}
	workloads[w.Name()] = w
}

// EngineFor resolves an engine name.
func EngineFor(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := engines[name]
	return e, ok
}

// WorkloadFor resolves a workload name.
func WorkloadFor(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := workloads[name]
	return w, ok
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WorkloadNames returns the registered workload names, sorted.
func WorkloadNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Supports reports whether the named engine can execute the named
// workload — the single compatibility rule behind scenario validation,
// grid expansion, and the conformance tests. Unknown names are
// unsupported.
func Supports(engine, workload string) bool {
	e, ok := EngineFor(engine)
	if !ok {
		return false
	}
	w, ok := WorkloadFor(workload)
	if !ok {
		return false
	}
	return e.Supports(w)
}

// IsNative reports whether the named engine is registered and native
// (no beeping channel; see Engine.Native).
func IsNative(engine string) bool {
	e, ok := EngineFor(engine)
	return ok && e.Native()
}

// SupportsNoise reports whether the named engine can execute under the
// channel-model spec — the capability rule for the noise axis, beside
// Supports for workloads. Every engine accepts the default channel
// (empty spec); only engines that actually simulate over the beeping
// channel (the non-native ones) accept a model, and the spec must name
// a registered model. Unknown engines support nothing.
func SupportsNoise(engine, spec string) bool {
	e, ok := EngineFor(engine)
	if !ok {
		return false
	}
	if spec == "" {
		return true
	}
	if e.Native() {
		return false
	}
	_, err := noise.Parse(spec)
	return err == nil
}
