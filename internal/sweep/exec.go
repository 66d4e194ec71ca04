package sweep

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ExecOptions are the execution-only knobs: they parallelize a single
// scenario's per-round engine phases or share pure-function artifacts
// across scenarios and, by the determinism contract (DESIGN.md §4),
// never change the Record (WallNanos and BuildNanos aside). They are
// deliberately outside the Scenario spec so the content hash covers
// inputs only.
type ExecOptions struct {
	// Workers follows the engine convention: 0 or 1 = serial,
	// engine.AutoWorkers = one per CPU.
	Workers int
	// GenWorkers shards graph generation for the streaming families
	// (Scenario.BuildGraphWorkers): 0 or 1 = serial, negative = one per
	// CPU. The built graph — and therefore the record — is byte-identical
	// for every value.
	GenWorkers int
	// Artifacts, when non-nil, shares graphs and code tables across
	// Execute calls (the scheduler passes one cache per Service).
	// Cached artifacts are pure functions of their keys, so records are
	// byte-identical with the cache on or off.
	Artifacts *sim.Cache
	// Metrics, when non-nil, receives observation-only instrumentation
	// from the execution layers (build/run timers here, phase and decode
	// counters in the engines). Telemetry never consumes algorithm or
	// channel randomness, so records are byte-identical with it on or off
	// (TestTelemetryRecordsIdentical).
	Metrics *obs.Registry
	// MaxRoundsFactor, when positive, caps the engine round budget at
	// ⌈factor · workload budget⌉: the guard that keeps a jammed or
	// broken protocol from running unbounded. A tripped cap records a
	// typed budget-exhausted Failure instead of hanging. This is the one
	// knob in ExecOptions that CAN change a record (it bounds the run
	// itself), which is why it is a guard, not a tuning parameter: hold
	// it constant across every run feeding one store, exactly like a
	// spec axis. Zero (the default) preserves the workload budget and
	// the historic records byte for byte.
	MaxRoundsFactor float64
}

// execMetrics resolves the sweep execution layer's handles; the zero
// value (nil registry) disables everything at one pointer check per use.
type execMetrics struct {
	buildT *obs.Timer
	runT   *obs.Timer
	lanes  *obs.Histogram
	gBytes *obs.Gauge
}

func newExecMetrics(reg *obs.Registry) execMetrics {
	if reg == nil {
		return execMetrics{}
	}
	return execMetrics{
		buildT: reg.Timer("sweep.exec.build_nanos"),
		runT:   reg.Timer("sweep.exec.run_nanos"),
		lanes:  reg.Histogram("sweep.exec.sliced_lanes"),
		gBytes: reg.Gauge("sweep.graph.bytes"),
	}
}

// Execute runs one scenario and returns its record. Everything in the
// record except WallNanos and BuildNanos is a deterministic function of
// the spec. The workload and engine are resolved through the
// internal/sim registries: the workload supplies bandwidth, budget,
// per-node instances, and output verification; the engine supplies the
// execution substrate and its engine-specific Extras, which land in the
// record's typed fields.
func Execute(sc Scenario, opt ExecOptions) (Record, error) {
	if err := sc.Validate(); err != nil {
		return Record{}, err
	}
	wl, ok := sim.WorkloadFor(sc.Workload)
	if !ok {
		return Record{}, fmt.Errorf("sweep: unknown workload %q", sc.Workload)
	}
	eng, ok := sim.EngineFor(sc.Engine)
	if !ok {
		return Record{}, fmt.Errorf("sweep: unknown engine %q", sc.Engine)
	}

	buildStart := time.Now()
	g, err := sc.buildGraphCached(opt.Artifacts, opt.GenWorkers)
	if err != nil {
		return Record{}, fmt.Errorf("sweep: %s: build graph: %w", sc.Hash(), err)
	}
	rec := Record{
		Hash:  sc.Hash(),
		Spec:  sc,
		Graph: GraphInfo{N: g.N(), MaxDegree: g.MaxDegree(), Edges: g.M()},
	}

	msgBits := sc.MsgBits
	if msgBits == 0 {
		msgBits = wl.MsgBits(g)
	}
	budget, capped := capBudget(wl.Budget(g, sc.Rounds), opt.MaxRoundsFactor)
	var algs []congest.BroadcastAlgorithm
	if eng.DrivesAlgs() {
		algs = wl.Algs(g, sc.Rounds)
	}

	inst, err := eng.Prepare(g, sim.Config{
		MsgBits:     msgBits,
		Epsilon:     sc.Epsilon,
		Noise:       sc.Noise,
		ChannelSeed: sc.ChannelSeed,
		AlgSeed:     sc.AlgSeed,
		Workers:     opt.Workers,
		Workload:    wl,
		Rounds:      sc.Rounds,
		Artifacts:   opt.Artifacts,
		Metrics:     opt.Metrics,
	})
	if err != nil {
		return Record{}, err
	}
	// BuildNanos covers all setup — graph construction, workload
	// instances, and engine preparation (code tables, TDMA schedule) —
	// so WallNanos measures the engine run alone and artifact-cache
	// hits (graphs and code tables) show up as collapsed build times.
	rec.BuildNanos = time.Since(buildStart).Nanoseconds()
	em := newExecMetrics(opt.Metrics)
	em.buildT.Observe(time.Duration(rec.BuildNanos))
	start := time.Now()
	res, extras, err := inst.Run(algs, budget)
	if err != nil {
		return Record{}, err
	}
	if err := completeRecord(&rec, g, wl, res, extras, budget, capped, em); err != nil {
		return Record{}, err
	}
	rec.WallNanos = time.Since(start).Nanoseconds()
	em.runT.Observe(time.Duration(rec.WallNanos))
	return rec, nil
}

// completeRecord is the tail both execution paths share. It fills rec's
// counters and engine Extras from a finished run, distills the
// workload's output validity into Counters.OutputOK, sets the failure
// reason, and reports the graph's size to the sweep.graph.bytes gauge.
// Workloads without a validity notion (ErrUnverified) leave OutputOK
// nil; a type mismatch is a wiring bug and fails the scenario with a
// typed error rather than crashing the batch worker.
func completeRecord(rec *Record, g *graph.Graph, wl sim.Workload, res *core.Result, extras sim.Extras, budget int, capped bool, em execMetrics) error {
	em.gBytes.Set(g.Bytes())
	rec.Counters = countersFromCore(res)
	rec.Counters.Messages = extras[sim.ExtraMessages]
	rec.Colors = int(extras[sim.ExtraColors])
	rec.Rho = int(extras[sim.ExtraRho])
	rec.SetupRounds = int(extras[sim.ExtraSetupRounds])
	verr := wl.Verify(g, res.Outputs)
	if !errors.Is(verr, sim.ErrUnverified) {
		var typeErr *sim.OutputTypeError
		if errors.As(verr, &typeErr) {
			return fmt.Errorf("sweep: %s: %w", rec.Hash, typeErr)
		}
		outputOK := rec.Counters.AllDone && verr == nil
		rec.Counters.OutputOK = &outputOK
	}
	rec.Failure = failureFor(rec.Spec, rec.Counters, verr, capped, budget)
	return nil
}

// capBudget applies the MaxRoundsFactor guard to a workload budget,
// reporting whether the cap is the binding constraint.
func capBudget(budget int, factor float64) (int, bool) {
	if factor <= 0 {
		return budget, false
	}
	c := int(math.Ceil(factor * float64(budget)))
	if c < 1 {
		c = 1
	}
	if c >= budget {
		return budget, false
	}
	return c, true
}

// hostileChannel reports whether the scenario runs under a hostile
// (adversarial or jamming) channel model; failures are then attributed
// to the channel rather than the algorithm.
func hostileChannel(sc Scenario) bool {
	if sc.Noise == "" {
		return false
	}
	m, err := noise.Parse(sc.Noise)
	return err == nil && noise.Hostile(m)
}

// quietChannel reports whether the scenario's channel can never flip a
// bit: ε = 0 on the default channel, or a noise model that is
// Noiseless. Only quiet replicates run as lanes (sliceGroups).
func quietChannel(sc Scenario) bool {
	if sc.Noise == "" {
		return sc.Epsilon == 0
	}
	m, err := noise.Parse(sc.Noise)
	return err == nil && m.Noiseless()
}

// failureFor distills a completed run into the Record's Failure reason:
// empty for a healthy run; the budget-guard trip for any channel; and,
// under a hostile channel only, unfinished nodes or failed output
// verification — the graceful-degradation contract (a broken protocol
// terminates with a typed failure, it never hangs or panics).
func failureFor(sc Scenario, c Counters, verr error, capped bool, budget int) string {
	if capped && !c.AllDone {
		return fmt.Sprintf("round budget exhausted: MaxRoundsFactor cap of %d beep rounds hit with unfinished nodes", budget)
	}
	if !hostileChannel(sc) {
		return ""
	}
	if !c.AllDone {
		return "terminated with unfinished nodes under the hostile channel"
	}
	if c.OutputOK != nil && !*c.OutputOK {
		if verr != nil && !errors.Is(verr, sim.ErrUnverified) {
			return "output verification failed: " + verr.Error()
		}
		return "output verification failed"
	}
	return ""
}

// sliceKey is the grouping identity of replicate-sliced execution: two
// scenarios may run as lanes of one sliced engine pass iff they differ
// only in Replicate, ChannelSeed, AlgSeed — and GraphSeed when the
// family derives its graph without it (every family except the random
// ones builds a pure function of N and Param, so replicates share one
// topology even though grid expansion varies their GraphSeed). The
// zeroed spec itself is the key — Scenario is comparable, so grouping
// costs no hashing.
func sliceKey(sc Scenario) Scenario {
	sc.Replicate, sc.ChannelSeed, sc.AlgSeed = 0, 0, 0
	if !graphSeedMatters(sc.Family) {
		sc.GraphSeed = 0
	}
	return sc
}

// graphSeedMatters reports whether BuildGraph consumes GraphSeed.
func graphSeedMatters(family string) bool {
	switch family {
	case FamilyRegular, FamilyBounded, FamilyGeo:
		return true
	}
	return false
}

// slicedCapable reports whether the scenario's engine advertises
// replicate-sliced execution (sim.SlicedEngine).
func slicedCapable(sc Scenario) bool {
	eng, ok := sim.EngineFor(sc.Engine)
	if !ok {
		return false
	}
	_, ok = eng.(sim.SlicedEngine)
	return ok
}

// executeSliced runs a group of quiet-channel scenarios that differ
// only in their replicate seeds (equal sliceKey) as lanes of one
// replicate-sliced engine pass. hashes, when non-nil, holds the specs'
// precomputed hashes positionally parallel to scs, as the scheduler
// holds them: hashing is SHA-256 over canonical JSON, too expensive to
// redo per lane when the caller already paid for it. The returned
// records are positionally parallel to scs and — excepting WallNanos
// and BuildNanos, the non-deterministic timing fields, which report the
// group's totals amortized evenly over the lanes — byte-identical to
// Execute on each spec: slicing is an execution detail, never an
// identity axis, so hashes, stores, and downstream aggregation cannot
// observe it.
func executeSliced(scs []Scenario, hashes []string, opt ExecOptions) ([]Record, error) {
	if len(scs) == 0 || len(scs) > 64 {
		return nil, fmt.Errorf("sweep: sliced group of %d scenarios outside [1, 64]", len(scs))
	}
	key := sliceKey(scs[0])
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if sliceKey(sc) != key {
			return nil, fmt.Errorf("sweep: sliced group mixes scenarios beyond their seeds (%s vs %s)", sc.Hash(), scs[0].Hash())
		}
	}
	wl, _ := sim.WorkloadFor(scs[0].Workload) // Validate resolved both
	eng, _ := sim.EngineFor(scs[0].Engine)
	seng, ok := eng.(sim.SlicedEngine)
	if !ok {
		return nil, fmt.Errorf("sweep: engine %q is not replicate-sliced capable", scs[0].Engine)
	}

	buildStart := time.Now()
	g, err := scs[0].buildGraphCached(opt.Artifacts, opt.GenWorkers)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: build graph: %w", scs[0].Hash(), err)
	}
	msgBits := scs[0].MsgBits
	if msgBits == 0 {
		msgBits = wl.MsgBits(g)
	}
	budget, capped := capBudget(wl.Budget(g, scs[0].Rounds), opt.MaxRoundsFactor)
	algSeeds := make([]uint64, len(scs))
	algs := make([][]congest.BroadcastAlgorithm, len(scs))
	for k, sc := range scs {
		algSeeds[k] = sc.AlgSeed
		algs[k] = wl.Algs(g, sc.Rounds)
	}
	inst, err := seng.PrepareSliced(g, sim.Config{
		MsgBits:   msgBits,
		Epsilon:   scs[0].Epsilon,
		Noise:     scs[0].Noise,
		Workers:   opt.Workers,
		Workload:  wl,
		Rounds:    scs[0].Rounds,
		Artifacts: opt.Artifacts,
		Metrics:   opt.Metrics,
	}, algSeeds)
	if err != nil {
		return nil, err
	}
	buildNanos := time.Since(buildStart).Nanoseconds()
	em := newExecMetrics(opt.Metrics)
	em.buildT.Observe(time.Duration(buildNanos))
	em.lanes.Observe(int64(len(scs)))
	start := time.Now()
	results, extras, err := inst.RunSliced(algs, budget)
	if err != nil {
		return nil, err
	}
	wallNanos := time.Since(start).Nanoseconds()
	em.runT.Observe(time.Duration(wallNanos))

	recs := make([]Record, len(scs))
	for k, sc := range scs {
		hash := ""
		if hashes != nil {
			hash = hashes[k]
		}
		if hash == "" {
			hash = sc.Hash()
		}
		recs[k] = Record{
			Hash:       hash,
			Spec:       sc,
			Graph:      GraphInfo{N: g.N(), MaxDegree: g.MaxDegree(), Edges: g.M()},
			BuildNanos: buildNanos / int64(len(scs)),
			WallNanos:  wallNanos / int64(len(scs)),
		}
		if err := completeRecord(&recs[k], g, wl, results[k], extras[k], budget, capped, em); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
