package sweep

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures the scheduler: a one-shot Run or a resident
// Service.
type Options struct {
	// Jobs bounds scenario-level concurrency (0 = one per CPU). The two
	// parallelism levels compose without oversubscription: when Jobs
	// leaves room for more than one concurrent scenario and Workers is 0
	// (auto), each scenario's engine pool and graph generation run
	// serial — the cores belong to the scenario level; with Jobs = 1 an
	// auto Workers gives the single scenario the whole machine, to build
	// its graph and to run, matching cmd/experiments. Jobs never exceeds
	// MaxPending, so a Run of one scenario is Jobs = 1.
	Jobs int
	// Workers configures each scenario's per-round engine pool, and the
	// pool that generates its graph (ExecOptions). 0 = auto as described
	// above; any explicit value (1 = serial, engine.AutoWorkers =
	// GOMAXPROCS) passes through. By the determinism contract, no
	// setting changes any record.
	Workers int
	// Artifacts is the scheduler's shared artifact cache (graphs + code
	// tables); nil creates a fresh one, so a Run builds each graph and
	// code table once and a Service shares them over its lifetime. Like
	// the parallelism knobs it never changes any record — cached
	// artifacts are pure functions of their keys.
	Artifacts *sim.Cache
	// Metrics, when non-nil, receives observation-only scheduler
	// instrumentation (store traffic, dedup, group shapes, queue wait,
	// singleflight) and is threaded down through ExecOptions into the
	// engines. Like every Options knob it never changes any record.
	Metrics *obs.Registry
	// MaxPending bounds a Service's queued-plus-running scenarios across
	// all jobs (0 = DefaultMaxPending): the backpressure valve. A Submit
	// that would exceed it fails fast with ErrBackpressure instead of
	// growing an unbounded queue. Run sets it to its input size.
	MaxPending int
	// ExecuteFunc replaces the task executor (nil = one engine pass per
	// lane group). A test seam: blocking it lets tests pin store-hit,
	// singleflight, and backpressure interleavings deterministically, a
	// whole lane group at a time. Production callers leave it nil — any
	// substitute must return one record per scenario, positionally, and
	// preserve the determinism contract (records a pure function of the
	// spec).
	ExecuteFunc func(group []Scenario, opt ExecOptions) ([]Record, error)
}

// Event is one slot's landing in a job's log (Job.Events).
type Event struct {
	// Index is the slot's position in the submitted slice; Done counts
	// the job's landings up to this one, out of Total.
	Index, Done, Total int
	// Hash names the slot's scenario, which a failed slot has no record
	// to name; the submitter's slice at Index holds its spec.
	Hash string
	// Cached reports a slot served without engine work.
	Cached bool
	// Err is the slot's failure, if any.
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

// Run executes scenarios through the store as one job on a short-lived
// Service: cache hits are served without engine work, misses are
// executed (at most Options.Jobs at a time) and persisted. Any
// StoreEngine serves — the in-memory Store or the seek-lookup
// IndexedStore — and every returned record is read back from it
// (Job.Wait). The returned slice is indexed like the input —
// records[i] is scenarios[i]'s record regardless of completion order,
// so batch output is deterministic even under concurrency. On scenario
// failures Run keeps going, returns every successful record, and
// reports the failures joined into one error (failed slots are zero
// Records).
func Run(scenarios []Scenario, store StoreEngine, opt Options) ([]Record, Stats, error) {
	if len(scenarios) == 0 {
		return []Record{}, Stats{}, nil
	}
	opt.MaxPending = len(scenarios)
	svc := NewService(store, opt)
	defer svc.Close()
	job, err := svc.Submit(scenarios)
	if err != nil {
		return nil, Stats{}, err
	}
	return job.Wait()
}

// sliceGroups partitions the owned scenario indices into the
// scheduler's tasks, the lane groups execute runs. Scenarios that share
// a sliceKey (same spec up to replicate seeds) coalesce into groups of
// at most their engine's Lanes — 64 for TDMA on a channel that cannot
// flip a bit, 1 everywhere else (DESIGN.md §2.14). Grouping follows
// first-seen order, so scheduling remains deterministic and records
// are unaffected (every lane is pinned byte-identical to a lone run).
func sliceGroups(scenarios []Scenario, order []int) [][]int {
	groups := make([][]int, 0, len(order))
	byKey := make(map[Scenario]int)
	for _, i := range order {
		sc := scenarios[i]
		key := sliceKey(sc)
		if gi, ok := byKey[key]; ok && len(groups[gi]) < lanes(sc) {
			groups[gi] = append(groups[gi], i)
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// lanes returns how many replicates of sc one engine pass runs: the
// engine's Lanes under sc's channel, 1 for an unknown engine.
func lanes(sc Scenario) int {
	eng, ok := sim.EngineFor(sc.Engine)
	if !ok {
		return 1
	}
	return eng.Lanes(sim.Config{Epsilon: sc.Epsilon, Noise: sc.Noise})
}
