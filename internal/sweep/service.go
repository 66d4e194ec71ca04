package sweep

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Service is the sweep scheduler: one worker pool over one store that
// serves any number of concurrent submissions. Run is one job on a
// short-lived Service; cmd/sweepd keeps one resident. Each Submit gets
// its own Job, which records its slots as they land; the jobs share
// the worker pool, the store, the artifact cache, and one request-level
// singleflight group, so identical scenarios submitted concurrently by
// different requests execute exactly once (sim.FlightGroup — the
// artifact cache's per-entry sync.Once generalized to the request layer).
//
// A job's unit of work is a task: one lane group (sliceGroups) over the
// job's first occurrence of each hash; later duplicates within the job
// copy their owner's outcome. A task serves its members store-first,
// claims one flight per remaining member, runs the members it owns
// together as lanes of one engine pass, finishes those flights,
// and only then waits on members another job has in flight. That order
// keeps waits between jobs from deadlocking: a task that waits owns no
// unfinished flight, and the owner of the flight it waits on is
// already running on another worker.
//
// Records are byte-identical to a lone run of each spec by the
// determinism contract: the service changes scheduling only, never
// results.
type Service struct {
	store       StoreEngine
	exec        ExecOptions
	executeFunc func([]Scenario, ExecOptions) ([]Record, error)

	tasks   chan task
	flights sim.FlightGroup[string, flightResult]
	wg      sync.WaitGroup
	m       serviceMetrics

	mu         sync.Mutex
	pending    int // scenarios of accepted jobs not yet landed, bounded by maxPending
	maxPending int
	nextJob    int
	jobs       map[string]*Job
	closed     bool
}

// DefaultMaxPending is the default backpressure bound.
const DefaultMaxPending = 4096

// ErrBackpressure is returned by Submit when accepting the request
// would exceed the service's MaxPending bound.
var ErrBackpressure = errors.New("sweep: service queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sweep: service is closed")

type serviceMetrics struct {
	submissions *obs.Counter
	scenarios   *obs.Counter
	dups        *obs.Counter
	groups      *obs.Counter
	storeHits   *obs.Counter
	storeMisses *obs.Counter
	executions  *obs.Counter
	dedup       *obs.Counter
	rejected    *obs.Counter
	queueDepth  *obs.Gauge
	queueWait   *obs.Timer
}

func newServiceMetrics(reg *obs.Registry, artifacts *sim.Cache) serviceMetrics {
	if reg == nil {
		return serviceMetrics{}
	}
	// Pull-based cache counters: evaluated at snapshot time against the
	// service's artifact cache. Func replaces on re-registration, so each
	// Run re-points the metrics at its own cache.
	reg.Func("sim.cache.graph_hits", func() int64 { return artifacts.Stats().GraphHits })
	reg.Func("sim.cache.graph_misses", func() int64 { return artifacts.Stats().GraphMisses })
	reg.Func("sim.cache.code_hits", func() int64 { return artifacts.Stats().CodeHits })
	reg.Func("sim.cache.code_misses", func() int64 { return artifacts.Stats().CodeMisses })
	return serviceMetrics{
		submissions: reg.Counter("sweep.service.submissions"),
		scenarios:   reg.Counter("sweep.service.scenarios"),
		dups:        reg.Counter("sweep.batch.dups"),
		groups:      reg.Counter("sweep.batch.groups"),
		storeHits:   reg.Counter("sweep.service.store_hits"),
		storeMisses: reg.Counter("sweep.store.misses"),
		executions:  reg.Counter("sweep.service.executions"),
		dedup:       reg.Counter("sweep.service.singleflight_hits"),
		rejected:    reg.Counter("sweep.service.rejected"),
		queueDepth:  reg.Gauge("sweep.service.queue_depth"),
		queueWait:   reg.Timer("sweep.service.queue_wait_nanos"),
	}
}

// task is one lane group of a job: owner slot indices in first-seen
// order, and the span timing its wait in the queue.
type task struct {
	job   *Job
	group []int
	wait  obs.Span
}

// flightResult is a flight's outcome. rec points at the owner's record
// (nil on failure), so the flight a Begin allocates stays small.
type flightResult struct {
	rec *Record
	err error
}

// NewService starts a service over store: opt.Jobs resident workers
// draining one shared task queue. Close releases them.
func NewService(store StoreEngine, opt Options) *Service {
	if opt.MaxPending <= 0 {
		opt.MaxPending = DefaultMaxPending
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// No more than MaxPending scenarios are ever queued, so more workers
	// than that would only idle.
	jobs = min(jobs, opt.MaxPending)
	workers := opt.Workers
	if workers == 0 {
		if jobs > 1 {
			workers = 1
		} else {
			workers = engine.AutoWorkers
		}
	}
	if opt.Artifacts == nil {
		opt.Artifacts = sim.NewCache()
	}
	s := &Service{
		store: store,
		exec: ExecOptions{
			Workers: workers, Artifacts: opt.Artifacts, Metrics: opt.Metrics,
		},
		executeFunc: opt.ExecuteFunc,
		// Every task holds at least one pending scenario, so a queue of
		// MaxPending tasks never fills and Submit's sends never block.
		tasks:      make(chan task, opt.MaxPending),
		maxPending: opt.MaxPending,
		jobs:       make(map[string]*Job),
		m:          newServiceMetrics(opt.Metrics, opt.Artifacts),
	}
	for range jobs {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// MaxPending returns the service's backpressure bound: the most
// scenarios one submission may hold.
func (s *Service) MaxPending() int { return s.maxPending }

// Submit hashes and enqueues scenarios as one Job and returns at once;
// Job.Wait blocks until it completes and Job.Events follows it.
// ErrBackpressure reports a full queue (nothing enqueued — admission is
// all-or-nothing, so a rejected request leaves no orphan tasks) and
// ErrClosed a closed service. An invalid scenario fails its own slot,
// like any execution error.
func (s *Service) Submit(scenarios []Scenario) (*Job, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("sweep: empty submission")
	}
	j := &Job{
		scenarios: scenarios,
		hashes:    make([]string, len(scenarios)),
		done:      make(chan struct{}),
		records:   make([]Record, len(scenarios)),
		errs:      make([]error, len(scenarios)),
		cached:    make([]bool, len(scenarios)),
		landed:    make([]int, 0, len(scenarios)),
		start:     time.Now(),
	}
	// Duplicate specs inside one job run once: the first index with a
	// given hash owns execution, later ones copy its outcome. Hashes are
	// computed once up front — they're SHA-256 over canonical JSON, too
	// expensive to recompute per store lookup.
	owner := make(map[string]int, len(scenarios))
	order := make([]int, 0, len(scenarios))
	for i, sc := range scenarios {
		j.hashes[i] = sc.Hash()
		if first, ok := owner[j.hashes[i]]; ok {
			if j.dups == nil {
				j.dups = make(map[int][]int)
			}
			j.dups[first] = append(j.dups[first], i)
			continue
		}
		owner[j.hashes[i]] = i
		order = append(order, i)
	}
	j.stats = Stats{Total: len(scenarios), Unique: len(order)}
	groups := sliceGroups(scenarios, order)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.pending+len(scenarios) > s.maxPending {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return nil, fmt.Errorf("%w: %d pending + %d submitted > %d", ErrBackpressure, s.pending, len(scenarios), s.maxPending)
	}
	s.pending += len(scenarios)
	s.m.queueDepth.Set(int64(s.pending))
	s.nextJob++
	j.id = fmt.Sprintf("j%d", s.nextJob)
	s.jobs[j.id] = j
	for _, g := range groups {
		s.tasks <- task{job: j, group: g, wait: s.m.queueWait.Start()}
	}
	s.mu.Unlock()
	s.m.submissions.Inc()
	s.m.scenarios.Add(int64(len(scenarios)))
	s.m.dups.Add(int64(len(scenarios) - len(order)))
	s.m.groups.Add(int64(len(groups)))
	return j, nil
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobIDs returns the IDs of every job the service has accepted, in
// submission order.
func (s *Service) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for i := 1; i <= s.nextJob; i++ {
		id := fmt.Sprintf("j%d", i)
		if _, ok := s.jobs[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Close stops admission, drains the queue (every accepted job still
// completes), and releases the workers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.tasks)
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		t.wait.Stop()
		s.runTask(t)
	}
}

// runTask resolves one lane group: store hits first, then one flight
// per miss. Members whose flight it owns run together and finish their
// flights; only then does it wait on the members it joined, which count
// as cached — the requester did no engine work — and increment the
// dedup counter.
//
// An owned member re-checks the store before running. That closes the
// exactly-once gap where a task misses the store, another job's flight
// for the same hash then lands (Put, then Finish), and the task would
// otherwise start a second execution of work the store already holds.
func (s *Service) runTask(t task) {
	j := t.job
	var owned, joined []int
	var flights []*sim.Flight[flightResult]
	for _, i := range t.group {
		hash := j.hashes[i]
		if rec, ok := s.store.Get(hash); ok {
			s.m.storeHits.Inc()
			s.land(j, i, rec, true, nil)
			continue
		}
		s.m.storeMisses.Inc()
		f, own := s.flights.Begin(hash)
		if !own {
			joined = append(joined, i)
			flights = append(flights, f)
			continue
		}
		if rec, ok := s.store.Get(hash); ok {
			s.m.storeHits.Inc()
			hit := rec // only a hit pays for a heap copy
			s.flights.Finish(hash, flightResult{rec: &hit})
			s.land(j, i, rec, true, nil)
			continue
		}
		owned = append(owned, i)
	}
	if len(owned) > 0 {
		s.runOwned(j, owned)
	}
	for k, i := range joined {
		res := flights[k].Wait()
		s.m.dedup.Inc()
		var rec Record
		if res.rec != nil {
			rec = *res.rec
		}
		s.land(j, i, rec, true, res.err)
	}
}

// runOwned executes the members a task owns in one pass, persists each
// record, and finishes its flight: Put before Finish, so a task that
// Begins a new flight for the hash afterwards finds the record on its
// store re-check.
func (s *Service) runOwned(j *Job, owned []int) {
	scs := make([]Scenario, len(owned))
	hashes := make([]string, len(owned))
	for k, i := range owned {
		scs[k], hashes[k] = j.scenarios[i], j.hashes[i]
	}
	s.m.executions.Add(int64(len(owned)))
	recs, err := s.execute(scs, hashes)
	for k, i := range owned {
		var rec Record
		res := flightResult{err: err}
		if err == nil {
			if res.err = s.store.Put(recs[k]); res.err == nil {
				rec, res.rec = recs[k], &recs[k]
			}
		}
		s.flights.Finish(hashes[k], res)
		s.land(j, i, rec, false, res.err)
	}
}

// execute runs one task's owned members through the test seam when set,
// else as one lane group. A panic in either, raised on this goroutine or
// re-raised here from a pool worker, fails every member with a
// *PanicError, so the worker survives and runOwned stores no record.
func (s *Service) execute(scs []Scenario, hashes []string) (recs []Record, err error) {
	defer func() {
		if v := recover(); v != nil {
			recs, err = nil, &PanicError{Hashes: hashes, Value: v, Stack: debug.Stack()}
		}
	}()
	if s.executeFunc != nil {
		return s.executeFunc(scs, s.exec)
	}
	return execute(scs, hashes, s.exec)
}

// PanicError is the failure of scenarios whose execution panicked: their
// hashes, the panic value and the stack it was recovered on. Nothing is
// stored for them, so a resubmission runs them again.
type PanicError struct {
	Hashes []string
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: execution of %d scenario(s) panicked: %v\n%s", len(e.Hashes), e.Value, e.Stack)
}

// land releases an owned slot and its in-job duplicates from the
// pending bound, then reports the outcome to the job. Releasing first
// means a caller whose Wait has returned can resubmit at once.
func (s *Service) land(j *Job, i int, rec Record, cached bool, err error) {
	s.mu.Lock()
	s.pending -= 1 + len(j.dups[i])
	s.m.queueDepth.Set(int64(s.pending))
	s.mu.Unlock()
	j.report(i, rec, cached, err)
}

// Job is one accepted submission over the service's shared workers, and
// the one record of its progress: each slot's record or failure and
// cached flag, and the order in which the slots landed. Events replays
// that log to any number of readers.
type Job struct {
	id        string
	scenarios []Scenario
	hashes    []string
	dups      map[int][]int // owner slot → later slots with its hash
	done      chan struct{}

	mu      sync.Mutex
	records []Record
	errs    []error
	cached  []bool
	landed  []int         // slot indices in landing order
	wake    chan struct{} // closed at the next landing; made by a reader that waits for it
	stats   Stats
	start   time.Time
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Wait blocks until the job completes and returns it like Run would: a
// record per input slot (zero on failure), batch stats, and the joined
// scenario failures, one per unique scenario. The record slice is the
// job's own, complete and no longer written.
func (j *Job) Wait() ([]Record, Stats, error) {
	<-j.done
	var failures []error
	seen := make(map[string]bool)
	for i, err := range j.errs {
		if err == nil || seen[j.hashes[i]] {
			continue
		}
		seen[j.hashes[i]] = true
		failures = append(failures, err)
	}
	return j.records, j.stats, errors.Join(failures...)
}

// JobStatus is a point-in-time progress snapshot (the cmd/sweepd
// polling shape).
type JobStatus struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	Unique    int    `json:"unique"`
	Done      int    `json:"done"`
	Cached    int    `json:"cached"`
	Ran       int    `json:"ran"`
	Failed    int    `json:"failed"`
	Complete  bool   `json:"complete"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// Status returns the job's current progress. Its clock stops at
// completion.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	complete, elapsed := len(j.landed) == j.stats.Total, time.Since(j.start)
	if complete {
		elapsed = j.stats.Wall
	}
	return JobStatus{
		ID:        j.id,
		Total:     j.stats.Total,
		Unique:    j.stats.Unique,
		Done:      len(j.landed),
		Cached:    j.stats.Cached,
		Ran:       j.stats.Ran,
		Failed:    j.stats.Failed,
		Complete:  complete,
		ElapsedMS: int64(elapsed / time.Millisecond),
	}
}

// report lands an owned slot's outcome and copies it to the slot's
// in-job duplicates: an in-job duplicate of a success is cached (no
// engine work for it), a duplicate of a failure is just a failure.
func (j *Job) report(i int, rec Record, cached bool, err error) {
	if err != nil {
		err = fmt.Errorf("scenario %d (%s): %w", i, j.hashes[i], err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.set(i, rec, cached, err)
	for _, d := range j.dups[i] {
		j.set(d, rec, err == nil, err)
	}
}

// set lands one slot: result slice, stats, the landing log, a wake-up
// for readers waiting on it, and — on the last slot — completion.
// Caller holds j.mu.
func (j *Job) set(i int, rec Record, cached bool, err error) {
	j.records[i], j.errs[i], j.cached[i] = rec, err, cached && err == nil
	j.landed = append(j.landed, i)
	switch {
	case err != nil:
		j.stats.Failed++
	case cached:
		j.stats.Cached++
	default:
		j.stats.Ran++
	}
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
	if len(j.landed) == j.stats.Total {
		j.stats.Wall = time.Since(j.start)
		close(j.done)
	}
}

// Events iterates the job's landings in order: every slot landed so far,
// then each later one as it lands, until all of the job's slots have
// been yielded or ctx is done. Each call replays from the first landing,
// so any number of readers can follow one job, and none holds up the
// workers, which only append to the log.
func (j *Job) Events(ctx context.Context) iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for k := range len(j.scenarios) {
			ev, ok := j.event(ctx, k)
			if !ok || !yield(ev) {
				return
			}
		}
	}
}

// event returns the job's k-th landing, waiting for it to land, or
// false if ctx is done first.
func (j *Job) event(ctx context.Context, k int) (Event, bool) {
	j.mu.Lock()
	for k >= len(j.landed) {
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake := j.wake
		j.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return Event{}, false
		}
		j.mu.Lock()
	}
	defer j.mu.Unlock()
	i := j.landed[k]
	return Event{Index: i, Done: k + 1, Total: len(j.scenarios), Hash: j.hashes[i], Spec: j.scenarios[i], Cached: j.cached[i], Err: j.errs[i]}, true
}
