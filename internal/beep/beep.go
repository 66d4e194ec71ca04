// Package beep implements the beeping network models of §1.1: synchronous
// rounds in which each node either beeps or listens, listeners hear a beep
// iff at least one neighbor beeped, and — in the noisy model of Ashkenazi,
// Gelles & Leshem — every received bit is flipped independently with
// probability ε ∈ [0, ½). The channel is pluggable (Params.Noise): any
// internal/noise model — asymmetric, erasure, Gilbert–Elliott burst
// noise — can replace the default symmetric{ε} channel, through the same
// two execution paths and with the same determinism guarantees.
//
// Reception follows the paper's §1.5 convention: a node "receives 1" in a
// round if it beeps itself or hears a beep, and 0 otherwise; in the noisy
// model this bit is flipped with probability ε, a node's own beep
// included. That is the paper's simplifying assumption; footnote 2 notes
// real devices keep their own transmissions noise-free, which "can only
// help".
//
// Two execution paths are provided: a generic round-by-round driver for
// arbitrary Programs (Run), and a word-parallel batch path for protocols
// whose beep pattern over a window is fixed up front (RunPhaseInto) — the
// shape of Algorithm 1's two phases. The two paths are observationally
// equivalent; TestRunPhaseEquivalence asserts bit-for-bit agreement.
//
// Both paths execute their per-node phases on the deterministic sharded
// worker pool of internal/engine: Run propagates each round's beeps
// through the graph's CSR rows as one bitset OR (graph.NeighborhoodOr)
// rather than per-listener neighbor scans, and RunPhaseInto computes each
// node's windowed reception word-parallel over 64 rounds at a time.
// Because every node's reception depends only on the previous beep vector
// and its private noise stream, runs are bit-identical for every
// Workers setting (TestRunSerialParallelIdentical).
package beep

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstring"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Action is a node's choice for a round.
type Action uint8

const (
	// Listen keeps the radio in carrier-sense mode.
	Listen Action = iota
	// Beep emits a unary pulse of energy.
	Beep
)

// Env is the static information a node program starts with: its identity,
// the global parameters all nodes are assumed to know (n and Δ, as in the
// paper), and the network seed its private randomness derives from.
type Env struct {
	ID        int
	N         int
	Degree    int
	MaxDegree int
	// Seed is the network seed. A program that draws randomness derives
	// its private stream from it with StreamInto; one that never draws
	// pays nothing for it.
	Seed uint64
}

// StreamInto seeds dst, in place, with the node's private randomness
// stream: rng.New(Seed).Split("node", ID), a pure function of (Seed, ID).
// Every call restarts the stream, so a program calls it once, in Init,
// on a stream it owns — a field of its own, or its slot of a block of
// streams the whole run shares.
func (e Env) StreamInto(dst *rng.Stream) {
	rng.New(e.Seed).Split2Into(dst, 0x6e6f6465, uint64(e.ID)) // "node"
}

// Program is one node's beeping protocol. Each round, Step is called for
// the node's action, then Hear delivers the received bit. Once Done
// reports true the node ceases participation: it neither beeps nor hears.
//
// The network drives a ProgramSet, not Programs: a protocol written per
// node — the tests' programs, such as the floods — reaches Run and
// RunSparse through PerNode. Protocols that run at scale (beepalgs' wave
// and MIS) implement the set themselves over flat node state, with no
// per-node interface value.
//
// A Program has no output method: the code that builds the programs
// reads their results afterwards in their own types, so a run neither
// boxes nor copies a per-node value.
//
// When Params.Workers > 1, callbacks for distinct nodes run concurrently
// within a phase (each node's own calls stay strictly ordered). Programs
// must therefore confine mutable state to the node itself and draw
// randomness only from the stream Env.StreamInto derives — no sharing
// across programs.
type Program interface {
	Init(env Env)
	Step(round int) Action
	Hear(round int, bit bool)
	Done() bool
}

// ProgramSet is the program of every node of one run, addressed by node
// index: Init, Step, Hear and Done are Program's methods for node v, and
// Len is the node count, which must be the network's. A run holds one
// set, so driving a node costs one indirect call per method and no
// per-node interface value. Program's concurrency rule holds per index:
// calls for distinct nodes may run concurrently, so a set keeps each
// node's mutable state apart, and state it shares across nodes read-only.
type ProgramSet interface {
	Len() int
	Init(v int, env Env)
	Step(v, round int) Action
	Hear(v, round int, bit bool)
	Done(v int) bool
}

// PerNode is the ProgramSet of one Program per node. It is a QuietSet: a
// QuietProgram declares its own wake-ups, and any other program is
// driven every round, which the QuietSet contract allows.
type PerNode []Program

// Len implements ProgramSet.
func (p PerNode) Len() int { return len(p) }

// Init implements ProgramSet.
func (p PerNode) Init(v int, env Env) { p[v].Init(env) }

// Step implements ProgramSet.
func (p PerNode) Step(v, round int) Action { return p[v].Step(round) }

// Hear implements ProgramSet.
func (p PerNode) Hear(v, round int, bit bool) { p[v].Hear(round, bit) }

// Done implements ProgramSet.
func (p PerNode) Done(v int) bool { return p[v].Done() }

// NextWake implements QuietSet.
func (p PerNode) NextWake(v, round int) int {
	if q, ok := p[v].(QuietProgram); ok {
		return q.NextWake(round)
	}
	return round + 1
}

// Params configures a beeping network.
type Params struct {
	// Epsilon is the noise probability ε ∈ [0, ½). Zero selects the
	// noiseless model. It parameterizes the default symmetric channel;
	// leave it 0 when Noise is set.
	Epsilon float64
	// Noise selects a non-default channel-noise model (internal/noise).
	// Nil means the symmetric{Epsilon} channel, bit-for-bit the historic
	// behavior. A non-nil model owns the channel: Epsilon must be 0.
	Noise noise.Model
	// Seed derives all channel randomness.
	Seed uint64
	// RecordBeeps retains a per-round bitstring of which nodes beeped,
	// retrievable via Network.BeepHistory (used by the lower-bound
	// transcript experiments).
	RecordBeeps bool
	// Workers sets the number of goroutines Run and RunPhaseInto use for
	// the per-node step/receive phases (0 or 1 = serial,
	// engine.AutoWorkers = GOMAXPROCS). Results are bit-identical to the
	// serial path: per-node noise streams are independent and shards are
	// word-aligned, so each worker writes only its own nodes.
	Workers int
	// Metrics, when non-nil, receives channel telemetry (rounds, windows,
	// energy, per-model applied noise flips, pool dispatch stats). Per
	// the determinism contract instrumentation is observation-only: it
	// consumes no randomness and branches on no channel data, so runs
	// are byte-identical with Metrics set or nil.
	Metrics *obs.Registry
}

// netMetrics are the network's resolved telemetry handles; the zero
// value (all nil) is the disabled state and every update no-ops.
type netMetrics struct {
	rounds    *obs.Counter // channel rounds advanced
	windows   *obs.Counter // batch windows executed (RunPhaseInto calls)
	listeners *obs.Counter // nodes that listened, summed over batch windows
	beeps     *obs.Counter // energy: beeps transmitted
	flips     *obs.Counter // applied noise flips, named per model
	spent     *obs.Counter // adversarial budget spent (noise.adversary.spent)
	windowT   *obs.Timer   // wall time per batch window
	frontier  *obs.Gauge   // peak driven-node count per RunSparse call
}

// Network is a beeping network over a fixed graph. It maintains a global
// round counter across Run and RunPhaseInto calls so that channel noise is
// a single reproducible stream per node regardless of how execution is
// batched.
type Network struct {
	g      *graph.Graph
	params Params
	pool   *engine.Pool

	// model is the resolved channel (params.Noise, or symmetric{ε});
	// noisy caches whether it can flip any bit at all.
	model noise.Model
	noisy bool

	round      int
	totalBeeps int64
	noise      []noise.Sampler // per-node samplers; nil on a noiseless channel
	history    []*bitstring.BitString
	m          netMetrics

	// Reusable batch-phase state: the span callback is built once and
	// reads the current window through these fields, so a RunPhaseInto
	// call allocates nothing (Network is not safe for concurrent use —
	// the round counter already forbids that).
	phasePatterns  []*bitstring.BitString
	phaseDst       []*bitstring.BitString
	phaseListening *bitstring.BitString // nil: every node listens
	phaseWin       int
	phaseFn        func(engine.Span)

	// Sparse-sender gating for batch windows: when few nodes transmit,
	// phaseHearMask marks the vertices that can possibly hear anything
	// this window (the senders and their neighborhoods); receiveInto
	// short-circuits every other node's row scan. Nil when the window is
	// dense enough that the scan is cheaper than the mask. phaseSenders
	// (every window's senders) and phaseHear are the reusable scratch the
	// mask is built from.
	phaseSenders  *bitstring.BitString
	phaseHear     *bitstring.BitString
	phaseHearMask *bitstring.BitString
}

// NewNetwork creates a beeping network on g.
func NewNetwork(g *graph.Graph, params Params) (*Network, error) {
	if !noise.ValidRate(params.Epsilon) {
		return nil, fmt.Errorf("beep: ε = %v outside [0, 0.5)", params.Epsilon)
	}
	model := params.Noise
	if model == nil {
		model = noise.Symmetric{Eps: params.Epsilon}
	} else {
		if params.Epsilon != 0 {
			return nil, fmt.Errorf("beep: both Epsilon = %v and Noise = %s set; the model owns the channel, leave ε 0", params.Epsilon, model.Spec())
		}
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("beep: %w", err)
		}
	}
	// Topology-aware models (the adversary's hub strategy) see the public
	// graph structure. Binding is deterministic and consumes no
	// randomness, so a bound model's receptions stay a pure function of
	// (model spec, seed, node).
	if tb, ok := model.(noise.TopologyBinder); ok {
		deg := make([]int, g.N())
		for v := range deg {
			deg[v] = g.Degree(v)
		}
		model = tb.BindTopology(deg, g.MaxDegree())
	}
	nw := &Network{
		g:      g,
		params: params,
		pool:   engine.NewPool(params.Workers),
		model:  model,
		noisy:  !noise.Noiseless(model),
	}
	if nw.noisy {
		nw.noise = make([]noise.Sampler, g.N())
	}
	if reg := params.Metrics; reg != nil {
		nw.m = netMetrics{
			rounds:    reg.Counter("beep.rounds"),
			windows:   reg.Counter("beep.windows"),
			listeners: reg.Counter("beep.window_listeners"),
			beeps:     reg.Counter("beep.beeps"),
			flips:     reg.Counter("noise.flips." + model.Name()),
			windowT:   reg.Timer("beep.window_nanos"),
			frontier:  reg.Gauge("beep.frontier.peak"),
		}
		if model.Name() == noise.NameAdversary {
			// Budget accounting: adversarial corruptions are flips the
			// budget paid for, surfaced separately from the per-model
			// flip counter.
			nw.m.spent = reg.Counter("noise.adversary.spent")
		}
		nw.pool.Instrument(&engine.PoolMetrics{
			Do:    reg.Counter("pool.do"),
			Spans: reg.Counter("pool.spans"),
			Wait:  reg.Timer("pool.do_wait_nanos"),
		})
	}
	return nw, nil
}

// Pool returns the network's execution pool (for callers that stage their
// own per-node phases, such as the Algorithm 1 runner's decode step).
func (nw *Network) Pool() *engine.Pool { return nw.pool }

// TotalBeeps returns the total energy spent (number of beeps) so far.
func (nw *Network) TotalBeeps() int64 { return nw.totalBeeps }

// BeepHistory returns the recorded per-round beep patterns (nil unless
// Params.RecordBeeps).
func (nw *Network) BeepHistory() []*bitstring.BitString { return nw.history }

// NodeEnv builds the Env for node v. It allocates nothing: a program that
// draws randomness derives its stream from the carried seed itself.
func (nw *Network) NodeEnv(v int) Env {
	return Env{
		ID:        v,
		N:         nw.g.N(),
		Degree:    nw.g.Degree(v),
		MaxDegree: nw.g.MaxDegree(),
		Seed:      nw.params.Seed,
	}
}

// Result summarizes a Run.
type Result struct {
	// Rounds is the number of rounds consumed by this Run call.
	Rounds int
	// AllDone reports whether every program finished before the budget.
	AllDone bool
}

// Run initializes the programs and drives them round-by-round until all are
// done or maxRounds rounds elapse. Round numbers passed to programs are
// local to this call, starting at 0.
func (nw *Network) Run(progs ProgramSet, maxRounds int) (*Result, error) {
	if err := nw.initAll(progs, maxRounds); err != nil {
		return nil, err
	}
	n := nw.g.N()
	if nw.noisy {
		// Materialize samplers before the parallel phases; creation is a
		// pure function of (model, seed, v), so the order is immaterial.
		for v := 0; v < n; v++ {
			nw.noiseSampler(v)
		}
	}
	beeped := bitstring.New(n)
	heard := bitstring.New(n)
	done := progs.Done
	// The phase callbacks are built once per run and read the round
	// through localRound, so a round allocates nothing.
	var localRound int
	beepParts := make([]int64, nw.pool.NumShards(n))
	// Transmit phase: each shard writes only its own word-aligned region
	// of the beep vector, and its beep count to its own slot.
	transmit := func(s engine.Span) {
		var beeps int64
		for v := s.Lo; v < s.Hi; v++ {
			if progs.Done(v) {
				continue
			}
			if progs.Step(v, localRound) == Beep {
				beeped.Set(v)
				beeps++
			}
		}
		beepParts[s.Index] = beeps
	}
	propagateHear := func(s engine.Span) {
		nw.g.NeighborhoodOrRange(beeped, heard, s.Lo, s.Hi)
		nw.hearRange(progs, beeped, heard, localRound, s.Lo, s.Hi)
	}
	hear := func(s engine.Span) {
		nw.hearRange(progs, beeped, heard, localRound, s.Lo, s.Hi)
	}
	rounds, allDone, _ := nw.pool.Loop(n, maxRounds, done, func(round int) error {
		localRound = round
		beeped.Reset()
		heard.Reset()
		nw.pool.Do(n, transmit)
		var beeps int64
		for _, c := range beepParts {
			beeps += c
		}
		nw.totalBeeps += beeps
		nw.m.beeps.Add(beeps)
		if nw.params.RecordBeeps {
			nw.history = append(nw.history, beeped.Clone())
		}
		// Receive phase: propagate the beep vector through the CSR rows,
		// then deliver each node's noisy reception. Dense rounds on a
		// parallel pool fuse per-span receiver-centric propagation with
		// delivery; otherwise the propagation runs up front (when
		// beeping is sparse the sender-centric pass touches only the
		// beepers' rows, far less work than any per-listener scan) and
		// only delivery is fanned out. All variants OR the same bits,
		// so results are identical.
		if nw.pool.Parallel() && nw.g.DenseBeepers(beeped) {
			nw.pool.Do(n, propagateHear)
		} else {
			nw.g.NeighborhoodOr(beeped, heard)
			nw.pool.Do(n, hear)
		}
		nw.round++
		nw.m.rounds.Inc()
		return nil
	})
	return &Result{Rounds: rounds, AllDone: allDone}, nil
}

// initAll checks a run's program set and budget against the network,
// then initializes every node's program.
func (nw *Network) initAll(progs ProgramSet, maxRounds int) error {
	n := nw.g.N()
	if progs.Len() != n {
		return fmt.Errorf("beep: %d programs for %d nodes", progs.Len(), n)
	}
	if maxRounds < 0 {
		return fmt.Errorf("beep: negative round budget %d", maxRounds)
	}
	for v := 0; v < n; v++ {
		progs.Init(v, nw.NodeEnv(v))
	}
	return nil
}

// hearRange delivers round localRound's reception to nodes [lo, hi): the
// propagated neighborhood bit, OR'd with the node's own beep, through the
// node's private noise stream. It reads the bitsets word-at-a-time — the
// reception of node v is bit v&63 of (heard|beeped)'s word v>>6.
func (nw *Network) hearRange(progs ProgramSet, beeped, heard *bitstring.BitString, localRound, lo, hi int) {
	hw, bw := heard.Words(), beeped.Words()
	for v := lo; v < hi; v++ {
		if progs.Done(v) {
			continue
		}
		mask := uint64(1) << (uint(v) & 63)
		bit := (hw[v>>6]|bw[v>>6])&mask != 0
		if nw.noisy && nw.noiseSampler(v).FlipAt(nw.round, bit) {
			bit = !bit
		}
		progs.Hear(v, localRound, bit)
	}
}

// RunPhaseInto executes a fixed transmission window: node v beeps exactly
// at the 1-positions of patterns[v] (nil means silent throughout) and
// listens otherwise. It writes, for each node that listens in this window,
// the bits received over the window under the model's reception and noise
// rules into dst[v] (fully overwritten). All non-nil patterns must share
// one length, and every dst[v] must be non-nil with the window's length,
// so steady-state callers — the Algorithm 1 runner's two phases per
// simulated round — reuse one set of reception buffers and the phase
// allocates nothing.
//
// listening is the window's set of listeners, one bit per node; nil means
// every node listens. The runners pass the nodes whose programs are not
// done, which never listen again once they are. A node outside the set
// hears nothing this window: its dst[v] is left untouched, and its
// reception is neither propagated nor noised, so its noise sampler is
// neither created nor advanced. That changes no listener's reception —
// noise is position-determined over the network's absolute round clock,
// and a sampler consumes and discards the slots it skipped the next time
// it applies (noise.Sampler) — so a node that listens in a window hears
// the same bits whichever earlier windows it sat out. The one exception
// is a budgeted adversary, which, as in Run, spends no budget on slots
// its listener did not hear.
//
// The window is semantically identical to Run with per-pattern transmit
// programs but runs word-parallel: the OR over the inclusive neighborhood
// is computed 64 rounds at a time over the CSR rows, and noise is applied
// by enumerating flip positions with a geometric sampler. The per-node
// receptions are computed on the network's sharded pool. Patterns are
// read-only and may alias shared codeword masks; patterns[v] and dst[v]
// must not alias each other.
func (nw *Network) RunPhaseInto(patterns, dst []*bitstring.BitString, listening *bitstring.BitString) error {
	n := nw.g.N()
	length, err := nw.phaseLength(patterns)
	if err != nil {
		return err
	}
	if len(dst) != n {
		return fmt.Errorf("beep: %d reception buffers for %d nodes", len(dst), n)
	}
	for v, d := range dst {
		if d == nil || d.Len() != length {
			return fmt.Errorf("beep: reception buffer %d missing or not %d bits", v, length)
		}
	}
	if listening != nil && listening.Len() != n {
		return fmt.Errorf("beep: listening set of %d bits for %d nodes", listening.Len(), n)
	}

	// One popcount per pattern: count the window's beeps and mark its
	// senders in the same pass. The sender bitmap feeds the sparse mask
	// below.
	if nw.phaseSenders == nil {
		nw.phaseSenders = bitstring.New(n)
		nw.phaseHear = bitstring.New(n)
	} else {
		nw.phaseSenders.Reset()
	}
	var beeps int64
	senders := 0
	for v, p := range patterns {
		if p == nil {
			continue
		}
		if ones := p.Ones(); ones > 0 {
			beeps += int64(ones)
			senders++
			nw.phaseSenders.Set(v)
		}
	}
	nw.totalBeeps += beeps
	nw.m.beeps.Add(beeps)
	// Sparse windows: when few nodes transmit, every node outside the
	// senders' closed neighborhoods provably receives all-zero (before
	// noise), so one sender-centric propagation pass over the senders'
	// rows replaces n per-row scans. The mask only ever gates a shortcut
	// that computes the same bits — receptions are byte-identical whether
	// it is built or not.
	nw.phaseHearMask = nil
	if 4*senders <= n {
		nw.phaseHear.Reset()
		nw.g.NeighborhoodOr(nw.phaseSenders, nw.phaseHear)
		nw.phaseHear.OrInPlace(nw.phaseSenders)
		nw.phaseHearMask = nw.phaseHear
	}
	listeners := n
	if listening != nil {
		listeners = listening.Ones()
	}
	if nw.noisy && nw.pool.Parallel() {
		// Pre-create the listeners' noise samplers (lazy creation inside
		// the phase would be per-slot too, but keeping it here makes the
		// invariant obvious).
		for v := 0; v < n; v++ {
			if listening == nil || listening.Get(v) {
				nw.noiseSampler(v)
			}
		}
	}
	if nw.phaseFn == nil {
		nw.phaseFn = func(s engine.Span) {
			if nw.phaseListening == nil {
				for v := s.Lo; v < s.Hi; v++ {
					nw.receiveInto(v, nw.phasePatterns, nw.phaseWin, nw.phaseDst[v])
				}
				return
			}
			// Spans are word-aligned, so the span's listeners are the set
			// bits of its own listening words.
			lw := nw.phaseListening.Words()
			for w := s.Lo >> 6; w<<6 < s.Hi; w++ {
				for m := lw[w]; m != 0; m &= m - 1 {
					v := w<<6 | bits.TrailingZeros64(m)
					nw.receiveInto(v, nw.phasePatterns, nw.phaseWin, nw.phaseDst[v])
				}
			}
		}
	}
	nw.phasePatterns, nw.phaseDst, nw.phaseListening, nw.phaseWin = patterns, dst, listening, length
	sp := nw.m.windowT.Start()
	nw.pool.Do(n, nw.phaseFn)
	sp.Stop()
	nw.m.windows.Inc()
	nw.m.listeners.Add(int64(listeners))
	nw.m.rounds.Add(int64(length))
	nw.phasePatterns, nw.phaseDst, nw.phaseListening = nil, nil, nil // don't retain caller buffers
	if nw.params.RecordBeeps {
		for t := 0; t < length; t++ {
			col := bitstring.New(n)
			for v := 0; v < n; v++ {
				if patterns[v] != nil && patterns[v].Get(t) {
					col.Set(v)
				}
			}
			nw.history = append(nw.history, col)
		}
	}
	nw.round += length
	return nil
}

// phaseLength validates a pattern set and returns the window length.
func (nw *Network) phaseLength(patterns []*bitstring.BitString) (int, error) {
	if len(patterns) != nw.g.N() {
		return 0, fmt.Errorf("beep: %d patterns for %d nodes", len(patterns), nw.g.N())
	}
	length := -1
	for v, p := range patterns {
		if p == nil {
			continue
		}
		if length == -1 {
			length = p.Len()
		} else if p.Len() != length {
			return 0, fmt.Errorf("beep: pattern %d has length %d, want %d", v, p.Len(), length)
		}
	}
	if length == -1 {
		return 0, fmt.Errorf("beep: all patterns nil")
	}
	return length, nil
}

// receiveInto computes node v's reception for one batch window into acc:
// the OR over its inclusive neighborhood, then its private noise stream.
// It touches only v's sampler and output buffer, so distinct nodes may
// run concurrently.
func (nw *Network) receiveInto(v int, patterns []*bitstring.BitString, length int, acc *bitstring.BitString) {
	if hm := nw.phaseHearMask; hm != nil && !hm.Get(v) {
		// v is outside every sender's closed neighborhood: its pre-noise
		// reception is all-zero by construction of the mask, so skip the
		// row scan. Noise below still runs (and consumes the same
		// randomness), keeping the gated path byte-identical.
		acc.Reset()
	} else {
		if patterns[v] != nil {
			acc.CopyFrom(patterns[v])
		} else {
			acc.Reset()
		}
		for _, u := range nw.g.Row(v) {
			if p := patterns[u]; p != nil {
				acc.OrInPlace(p)
			}
		}
	}
	if nw.noisy {
		// The sampler perturbs the pre-noise reception in place.
		nw.noiseSampler(v).ApplyInto(acc.Words(), nw.round, nw.round+length)
	}
}

// noiseSampler lazily binds the channel model to node v's private
// randomness. The symmetric model derives and consumes its stream
// exactly as the pre-model ε channel did, so symmetric runs are
// byte-identical across the pluggable-model refactor. Only a noisy
// network has sampler slots, so every call sits behind nw.noisy.
func (nw *Network) noiseSampler(v int) noise.Sampler {
	if nw.noise[v] == nil {
		s := nw.model.Sampler(nw.params.Seed, v)
		// The counting wrapper is the telemetry accounting hook: it
		// observes applied flips by before/after comparison and delegates
		// all randomness consumption, so wrapped receptions are
		// byte-identical (pinned by the noise package's counting tests).
		// The pointer check matters: a nil *obs.Counter boxed into the
		// Accountant interface would not be a nil interface.
		if nw.m.flips != nil {
			s = noise.Counting(s, nw.m.flips)
		}
		if nw.m.spent != nil {
			// Every adversarial flip is a unit of budget spent, so a second
			// counting wrapper is exact budget accounting.
			s = noise.Counting(s, nw.m.spent)
		}
		nw.noise[v] = s
	}
	return nw.noise[v]
}
