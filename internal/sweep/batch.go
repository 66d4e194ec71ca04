package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures a batch run.
type Options struct {
	// Jobs bounds scenario-level concurrency (0 = one per CPU). The two
	// parallelism levels compose without oversubscription: when Jobs
	// leaves room for more than one concurrent scenario and Workers is 0
	// (auto), each scenario's engine pool runs serial — the cores belong
	// to the scenario level; with Jobs = 1 an auto Workers gives the
	// single scenario the whole machine, matching cmd/experiments.
	Jobs int
	// Workers and Shards configure each scenario's per-round engine pool
	// (ExecOptions). Workers 0 = auto as described above; any explicit
	// value (1 = serial, engine.AutoWorkers = GOMAXPROCS) passes through.
	// By the determinism contract, no setting changes any record.
	Workers int
	Shards  int
	// GenWorkers shards graph generation for the streaming families
	// (ExecOptions.GenWorkers): 0 or 1 = serial, negative = one per CPU.
	// Byte-invisible in every record, like the other parallelism knobs.
	GenWorkers int
	// Artifacts is the batch's shared artifact cache (graphs + code
	// tables); nil makes Run create a fresh one, so a batch always
	// builds each graph and code table once. Like the parallelism knobs
	// it never changes any record — cached artifacts are pure functions
	// of their keys.
	Artifacts *sim.Cache
	// Progress, when non-nil, receives one Event per scenario as it
	// completes (cache hit or run), serialized — no locking needed.
	Progress func(Event)
	// Metrics, when non-nil, receives observation-only batch-scheduler
	// instrumentation (store hits, dedup, group shapes, schedule wait)
	// and is threaded down through ExecOptions into the engines. Like
	// every Options knob it never changes any record.
	Metrics *obs.Registry
	// MaxRoundsFactor forwards the round-budget guard to ExecOptions.
	// Unlike the other knobs it can change records (it bounds the run);
	// hold it constant across every run feeding one store.
	MaxRoundsFactor float64
}

// batchMetrics resolves the batch scheduler's handles; zero value (nil
// registry) disables everything at one pointer check per use.
type batchMetrics struct {
	storeHits   *obs.Counter
	storeMisses *obs.Counter
	dups        *obs.Counter
	groups      *obs.Counter
	groupLanes  *obs.Histogram
	peeledHits  *obs.Counter
	scheduleT   *obs.Timer
}

func newBatchMetrics(reg *obs.Registry, artifacts *sim.Cache) batchMetrics {
	if reg == nil {
		return batchMetrics{}
	}
	// Pull-based cache counters: evaluated at snapshot time against the
	// batch's artifact cache. Func replaces on re-registration, so each
	// batch re-points the metrics at its own cache.
	reg.Func("sim.cache.graph_hits", func() int64 { return artifacts.Stats().GraphHits })
	reg.Func("sim.cache.graph_misses", func() int64 { return artifacts.Stats().GraphMisses })
	reg.Func("sim.cache.code_hits", func() int64 { return artifacts.Stats().CodeHits })
	reg.Func("sim.cache.code_misses", func() int64 { return artifacts.Stats().CodeMisses })
	return batchMetrics{
		storeHits:   reg.Counter("sweep.store.hits"),
		storeMisses: reg.Counter("sweep.store.misses"),
		dups:        reg.Counter("sweep.batch.dups"),
		groups:      reg.Counter("sweep.batch.groups"),
		groupLanes:  reg.Histogram("sweep.batch.group_lanes"),
		peeledHits:  reg.Counter("sweep.batch.peeled_hits"),
		scheduleT:   reg.Timer("sweep.batch.schedule_wait_nanos"),
	}
}

// Event reports one scenario's completion to Options.Progress.
type Event struct {
	// Index is the scenario's position in the input slice; Done and
	// Total count completions so far.
	Index, Done, Total int
	// Cached reports a cache hit (no engine work).
	Cached bool
	// Record is the result (zero on error).
	Record Record
	// Err is the scenario's failure, if any.
	Err error
}

// Stats summarizes a batch.
type Stats struct {
	// Total counts scenarios requested; Unique counts distinct spec
	// hashes among them (duplicates are executed once).
	Total, Unique int
	// Cached counts scenarios served from the store with no engine work;
	// Ran counts engine executions; Failed counts errors.
	Cached, Ran, Failed int
	// Wall is the batch's total wall time.
	Wall time.Duration
}

func (st Stats) String() string {
	return fmt.Sprintf("total=%d cached=%d run=%d failed=%d wall=%s",
		st.Total, st.Cached, st.Ran, st.Failed, st.Wall.Round(time.Millisecond))
}

// Summary renders a batch's Stats together with the artifact cache's
// hit/miss counters — the end-of-run line the CLIs print so a sweep's
// cache effectiveness is visible without enabling full telemetry.
func Summary(st Stats, cs sim.CacheStats) string {
	return fmt.Sprintf("%s artifacts[%s]", st, cs)
}

// Run executes scenarios through the store: cache hits are served
// without engine work, misses are executed (at most Options.Jobs at a
// time) and persisted. Any StoreEngine serves — the in-memory Store or
// the seek-lookup IndexedStore. The returned slice is indexed like the
// input — records[i] is scenarios[i]'s record regardless of completion
// order, so batch output is deterministic even under concurrency. On
// scenario failures Run keeps going, returns every successful record,
// and reports the failures joined into one error (failed slots are zero
// Records).
func Run(scenarios []Scenario, store StoreEngine, opt Options) ([]Record, Stats, error) {
	start := time.Now()
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(scenarios) {
		jobs = max(len(scenarios), 1)
	}
	workers := opt.Workers
	if workers == 0 {
		if jobs > 1 {
			workers = 1
		} else {
			workers = engine.AutoWorkers
		}
	}
	artifacts := opt.Artifacts
	if artifacts == nil {
		artifacts = sim.NewCache()
	}
	execOpt := ExecOptions{Workers: workers, Shards: opt.Shards, GenWorkers: opt.GenWorkers, Artifacts: artifacts, Metrics: opt.Metrics, MaxRoundsFactor: opt.MaxRoundsFactor}
	bm := newBatchMetrics(opt.Metrics, artifacts)

	// Duplicate specs inside one batch run once: the first index with a
	// given hash owns execution, later ones copy its result. Hashes are
	// computed once up front — they're SHA-256 over canonical JSON, too
	// expensive to recompute per store lookup.
	hashes := make([]string, len(scenarios))
	owner := make(map[string]int, len(scenarios))
	dups := make([][]int, len(scenarios))
	var order []int
	for i, sc := range scenarios {
		hashes[i] = sc.Hash()
		if first, ok := owner[hashes[i]]; ok {
			dups[first] = append(dups[first], i)
			continue
		}
		owner[hashes[i]] = i
		order = append(order, i)
	}
	bm.dups.Add(int64(len(scenarios) - len(order)))

	records := make([]Record, len(scenarios))
	errs := make([]error, len(scenarios))
	cached := make([]bool, len(scenarios))

	var mu sync.Mutex // serializes progress + stats
	st := Stats{Total: len(scenarios), Unique: len(order)}
	done := 0
	report := func(i int, rec Record, wasCached bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		targets := append([]int{i}, dups[i]...)
		for _, j := range targets {
			records[j], cached[j], errs[j] = rec, wasCached, err
			done++
			switch {
			case err != nil:
				st.Failed++
			case wasCached:
				st.Cached++
			case j == i:
				st.Ran++
			default:
				st.Cached++ // in-batch duplicate: no engine work either
			}
			if opt.Progress != nil {
				// An in-batch duplicate of a successful run is cached (no
				// engine work for slot j), but a duplicate of a *failure*
				// is just a failure — mirroring the Stats arms above.
				opt.Progress(Event{Index: j, Done: done, Total: len(scenarios), Cached: wasCached || (j != i && err == nil), Record: rec, Err: err})
			}
		}
	}

	groups := sliceGroups(scenarios, order)
	bm.groups.Add(int64(len(groups)))
	if bm.groupLanes != nil {
		for _, g := range groups {
			bm.groupLanes.Observe(int64(len(g)))
		}
	}
	idx := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range idx {
				// Cache hits short-circuit lane-by-lane: only the misses
				// stay in the group, so a partially cached lane group runs
				// sliced over the remainder (or falls back to Execute when
				// a single miss is left).
				var misses []int
				for _, i := range group {
					if rec, ok := store.Get(hashes[i]); ok {
						bm.storeHits.Inc()
						if len(group) > 1 {
							bm.peeledHits.Inc()
						}
						report(i, rec, true, nil)
						continue
					}
					bm.storeMisses.Inc()
					misses = append(misses, i)
				}
				switch {
				case len(misses) == 0:
				case len(misses) == 1:
					i := misses[0]
					sc := scenarios[i]
					rec, err := Execute(sc, execOpt)
					if err == nil {
						err = store.Put(rec)
					}
					if err != nil {
						report(i, Record{}, false, fmt.Errorf("scenario %d (%s): %w", i, sc.Hash(), err))
						continue
					}
					report(i, rec, false, nil)
				default:
					scs := make([]Scenario, len(misses))
					missHashes := make([]string, len(misses))
					for k, i := range misses {
						scs[k] = scenarios[i]
						missHashes[k] = hashes[i]
					}
					recs, err := executeSliced(scs, missHashes, execOpt)
					if err != nil {
						for _, i := range misses {
							report(i, Record{}, false, fmt.Errorf("scenario %d (%s): %w", i, scenarios[i].Hash(), err))
						}
						continue
					}
					for k, i := range misses {
						err := store.Put(recs[k])
						if err != nil {
							report(i, Record{}, false, fmt.Errorf("scenario %d (%s): %w", i, scenarios[i].Hash(), err))
							continue
						}
						report(i, recs[k], false, nil)
					}
				}
			}
		}()
	}
	for _, group := range groups {
		// Schedule latency: how long each group waits for a free worker.
		sp := bm.scheduleT.Start()
		idx <- group
		sp.Stop()
	}
	close(idx)
	wg.Wait()

	st.Wall = time.Since(start)
	var failures []error
	for _, i := range order {
		if errs[i] != nil {
			failures = append(failures, errs[i])
		}
	}
	return records, st, errors.Join(failures...)
}

// sliceGroups partitions the owned scenario indices into execution
// units for the worker pool. Scenarios whose engine advertises
// replicate-sliced execution, whose channel cannot flip a bit, and that
// share a sliceKey (same spec up to replicate seeds) coalesce into lane
// groups of at most 64; everything else stays a singleton. Lanes pay
// only on a quiet channel: on a noisy one per-lane flip replay costs
// the same in either layout, and the lane path measured slower than
// serial runs (DESIGN.md §2.14). Grouping follows first-seen order, so
// batch scheduling remains deterministic and records are unaffected
// (slicing is pinned byte-identical to serial execution).
func sliceGroups(scenarios []Scenario, order []int) [][]int {
	groups := make([][]int, 0, len(order))
	byKey := make(map[Scenario]int)
	for _, i := range order {
		sc := scenarios[i]
		if !slicedCapable(sc) || !quietChannel(sc) {
			groups = append(groups, []int{i})
			continue
		}
		key := sliceKey(sc)
		if gi, ok := byKey[key]; ok && len(groups[gi]) < 64 {
			groups[gi] = append(groups[gi], i)
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}
