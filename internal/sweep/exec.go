package sweep

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/congest"
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
	// engine.AutoWorkers = one per CPU. It sizes the engine's pool and
	// the pool that generates a streaming family's graph
	// (Scenario.BuildGraphWorkers).
	Workers int
	// Artifacts, when non-nil, shares graphs and code tables across
	// executions (the scheduler passes one cache per Service).
	// Cached artifacts are pure functions of their keys, so records are
	// byte-identical with the cache on or off.
	Artifacts *sim.Cache
	// Metrics, when non-nil, receives observation-only instrumentation
	// from the execution layers (build/run timers here, phase and decode
	// counters in the engines). Telemetry never consumes algorithm or
	// channel randomness, so records are byte-identical with it on or off
	// (TestTelemetryRecordsIdentical).
	Metrics *obs.Registry
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

// execute runs a lane group — scenarios equal up to their replicate
// seeds (sliceKey), at most the engine's Lanes of them, which its
// Prepare enforces — as one engine pass and returns their records
// positionally. Everything in a record
// except WallNanos and BuildNanos is a deterministic function of its
// spec, the same whichever group it ran in: lanes are an execution
// detail, never an identity axis, so hashes, stores, and downstream
// aggregation cannot observe them. The two timing fields report the
// pass's totals amortized evenly over the lanes.
//
// The workload and engine are resolved through the internal/sim
// registries: the workload supplies bandwidth, budget, per-node
// instances, and output verification; the engine supplies the
// execution substrate and its engine-specific Extras, which land in the
// record's typed fields. hashes, when non-nil, holds the specs'
// precomputed hashes positionally, as the scheduler holds them: hashing
// is SHA-256 over canonical JSON, too expensive to redo per lane when
// the caller already paid for it.
func execute(scs []Scenario, hashes []string, opt ExecOptions) ([]Record, error) {
	if len(scs) == 0 {
		return nil, errors.New("sweep: empty lane group")
	}
	first := scs[0]
	key := sliceKey(first)
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if sliceKey(sc) != key {
			return nil, fmt.Errorf("sweep: lane group mixes scenarios beyond their seeds (%s vs %s)", sc.Hash(), first.Hash())
		}
	}
	wl, _ := sim.WorkloadFor(first.Workload) // Validate resolved both
	eng, _ := sim.EngineFor(first.Engine)

	buildStart := time.Now()
	g, err := first.buildGraphCached(opt.Artifacts, opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: build graph: %w", first.Hash(), err)
	}
	msgBits := first.MsgBits
	if msgBits == 0 {
		msgBits = wl.MsgBits(g)
	}
	cfg := sim.Config{
		MsgBits: msgBits,
		Epsilon: first.Epsilon,
		Noise:   first.Noise,
		// Lanes share one channel seed: only a channel that cannot flip
		// a bit, which draws none, runs more than one lane.
		ChannelSeed: first.ChannelSeed,
		AlgSeeds:    make([]uint64, len(scs)),
		Workers:     opt.Workers,
		Workload:    wl,
		Rounds:      first.Rounds,
		Artifacts:   opt.Artifacts,
		Metrics:     opt.Metrics,
	}
	var algs [][]congest.BroadcastAlgorithm
	if eng.DrivesAlgs() {
		algs = make([][]congest.BroadcastAlgorithm, len(scs))
	}
	for k, sc := range scs {
		cfg.AlgSeeds[k] = sc.AlgSeed
		if algs != nil {
			algs[k] = wl.Algs(g, sc.Rounds)
		}
	}
	inst, err := eng.Prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	// BuildNanos covers all setup — graph construction, workload
	// instances, and engine preparation (code tables, TDMA schedule) —
	// so WallNanos measures the engine run alone and artifact-cache
	// hits (graphs and code tables) show up as collapsed build times.
	buildNanos := time.Since(buildStart).Nanoseconds()
	em := newExecMetrics(opt.Metrics)
	em.buildT.Observe(time.Duration(buildNanos))
	em.lanes.Observe(int64(len(scs)))
	start := time.Now()
	results, extras, err := inst.Run(algs, wl.Budget(g, first.Rounds))
	if err != nil {
		return nil, err
	}
	wallNanos := time.Since(start).Nanoseconds()
	em.runT.Observe(time.Duration(wallNanos))

	em.gBytes.Set(g.Bytes())
	recs := make([]Record, len(scs))
	for k, sc := range scs {
		hash := ""
		if hashes != nil {
			hash = hashes[k]
		}
		if hash == "" {
			hash = sc.Hash()
		}
		res, ex := results[k], extras[k]
		rec := Record{
			Hash:        hash,
			Spec:        sc,
			Graph:       GraphInfo{N: g.N(), MaxDegree: g.MaxDegree(), Edges: g.M()},
			Counters:    countersFromCore(res),
			Colors:      int(ex[sim.ExtraColors]),
			Rho:         int(ex[sim.ExtraRho]),
			SetupRounds: int(ex[sim.ExtraSetupRounds]),
			BuildNanos:  buildNanos / int64(len(scs)),
			WallNanos:   wallNanos / int64(len(scs)),
		}
		rec.Counters.Messages = ex[sim.ExtraMessages]
		// The workload's output validity becomes Counters.OutputOK.
		// Workloads without a validity notion (ErrUnverified) leave it
		// nil; a wrongly typed output is a wiring bug and fails the group
		// with a typed error rather than crashing the batch worker.
		verr := sim.Verdict(eng, wl, g, res)
		if !errors.Is(verr, sim.ErrUnverified) {
			var typeErr *sim.OutputTypeError
			if errors.As(verr, &typeErr) {
				return nil, fmt.Errorf("sweep: %s: %w", hash, typeErr)
			}
			outputOK := rec.Counters.AllDone && verr == nil
			rec.Counters.OutputOK = &outputOK
		}
		rec.Failure = failureFor(sc, rec.Counters, verr)
		recs[k] = rec
	}
	return recs, nil
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

// failureFor distills a completed run into the Record's Failure reason:
// empty for a healthy run and, under a hostile channel only, unfinished
// nodes or failed output verification — the graceful-degradation
// contract (a broken protocol terminates with a typed failure, it never
// hangs or panics).
func failureFor(sc Scenario, c Counters, verr error) string {
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

// sliceKey is the grouping identity of lane groups: two scenarios may
// run as lanes of one engine pass iff they differ only in Replicate,
// ChannelSeed, AlgSeed — and GraphSeed when the family derives its
// graph without it (graphSeedMatters). The zeroed spec itself is the
// key — Scenario is comparable, so grouping costs no hashing.
func sliceKey(sc Scenario) Scenario {
	sc.Replicate, sc.ChannelSeed, sc.AlgSeed = 0, 0, 0
	if !graphSeedMatters(sc.Family) {
		sc.GraphSeed = 0
	}
	return sc
}

// graphSeedMatters reports whether BuildGraph consumes GraphSeed. Every
// family except the random ones builds a pure function of N and Param,
// so its replicates share one topology even though grid expansion
// varies their GraphSeed: they share a lane group and a cached graph.
func graphSeedMatters(family string) bool {
	switch family {
	case FamilyRegular, FamilyBounded, FamilyGeo:
		return true
	}
	return false
}
