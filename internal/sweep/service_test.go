package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

func openStore(t *testing.T) *IndexedStore {
	t.Helper()
	s, err := OpenIndexed(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fakeExec is a seam that does no engine work: one record per
// scenario carrying only its hash and spec.
func fakeExec(scs []Scenario, _ ExecOptions) ([]Record, error) {
	recs := make([]Record, len(scs))
	for k, sc := range scs {
		recs[k] = Record{Hash: sc.Hash(), Spec: sc}
	}
	return recs, nil
}

// TestServiceRunsLaneGroup: a long-lived Service forms lane groups like
// Run does — a 64-replicate quiet TDMA grid is one task, 64 executions,
// and its records equal per-scenario Execute.
func TestServiceRunsLaneGroup(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), Options{Jobs: 2, Metrics: reg})
	defer svc.Close()
	job, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != 64 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want run=64", st)
	}
	if n := reg.Counter("sweep.batch.groups").Value(); n != 1 {
		t.Fatalf("sweep.batch.groups=%d, want one lane group", n)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 64 {
		t.Fatalf("executions=%d, want 64", n)
	}
	assertExecuteEach(t, scs, recs)
}

// TestServiceOverlappingLaneGroups pins lane-member singleflight across
// jobs: job 1 runs replicates 0–63 as one lane group and is held in the
// seam until job 2 (replicates 32–95) has joined its 32 shared flights.
// Job 2 runs the 32 members it owns, then waits for job 1: 96
// executions, 32 singleflight hits, every record equal to Execute.
func TestServiceOverlappingLaneGroups(t *testing.T) {
	scs, err := replicateGrid(96).Expand()
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), Options{
		Jobs: 2, Metrics: reg,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			if group[0].Replicate == 0 {
				close(held)
				<-release
			}
			return execute(group, nil, opt)
		},
	})
	defer svc.Close()
	defer releaseOnce() // before Close, so a failed check never leaves the worker blocked

	job1, err := svc.Submit(scs[:64])
	if err != nil {
		t.Fatal(err)
	}
	<-held
	job2, err := svc.Submit(scs[32:])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, sc := range scs[32:64] {
		for svc.flights.Waiters(sc.Hash()) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("job 2 never joined the flight of replicate %d", sc.Replicate)
			}
			runtime.Gosched()
		}
	}
	releaseOnce()

	recs1, st1, err := job1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	recs2, st2, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Ran != 64 || st2.Ran != 32 || st2.Cached != 32 {
		t.Fatalf("job stats: %+v / %+v", st1, st2)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 96 {
		t.Fatalf("executions=%d, want 96", n)
	}
	if n := reg.Counter("sweep.service.singleflight_hits").Value(); n != 32 {
		t.Fatalf("singleflight_hits=%d, want 32", n)
	}
	assertExecuteEach(t, scs[:64], recs1)
	assertExecuteEach(t, scs[32:], recs2)
}

// TestServiceOverlappingLaneGroupsNoDeadlock: the same pair of jobs,
// one listing its replicates in reverse, always completes. A task that
// waited on a joined flight while still owning unfinished ones would
// deadlock here when each job claims half the shared members first.
func TestServiceOverlappingLaneGroupsNoDeadlock(t *testing.T) {
	scs, err := replicateGrid(96).Expand()
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]Scenario, 0, 64)
	for i := len(scs) - 1; i >= 32; i-- {
		reversed = append(reversed, scs[i])
	}
	for iter := 0; iter < 50; iter++ {
		svc := NewService(NewMemStore(), Options{Jobs: 2, ExecuteFunc: fakeExec})
		job1, err := svc.Submit(scs[:64])
		if err != nil {
			t.Fatal(err)
		}
		job2, err := svc.Submit(reversed)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, job := range []*Job{job1, job2} {
				if _, st, err := job.Wait(); err != nil || st.Failed != 0 {
					t.Errorf("iteration %d: stats=%+v err=%v", iter, st, err)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("iteration %d: overlapping lane groups did not complete", iter)
		}
		svc.Close()
	}
}

// TestServiceSingleflight pins the dedup path deterministically: a
// blocked execution for hash H is in flight; a second submission of H
// joins the flight (observed via Waiters) before release; exactly one
// execution runs and the joiner reports cached with the dedup counter
// incremented.
func TestServiceSingleflight(t *testing.T) {
	sc := baseSpec()
	hash := sc.Hash()
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	started := make(chan struct{}, 2)
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), Options{
		Jobs: 2, Metrics: reg,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			started <- struct{}{}
			<-release
			return fakeExec(group, opt)
		},
	})
	defer svc.Close()
	defer releaseOnce() // before Close, so a failed check never leaves the worker blocked

	job1, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the flight for hash is open and blocked

	job2, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until job2's worker is blocked inside the flight, so the
	// share — not a late store hit — is the path under test.
	for deadline := time.Now().Add(5 * time.Second); svc.flights.Waiters(hash) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second submission never joined the flight")
		}
		runtime.Gosched()
	}
	releaseOnce()

	_, st1, err := job1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := job2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Ran != 1 || st1.Cached != 0 {
		t.Fatalf("owner job stats: %+v", st1)
	}
	if st2.Ran != 0 || st2.Cached != 1 {
		t.Fatalf("joiner job stats: %+v", st2)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 1 {
		t.Fatalf("executions=%d, want exactly 1", n)
	}
	if n := reg.Counter("sweep.service.singleflight_hits").Value(); n != 1 {
		t.Fatalf("singleflight_hits=%d, want 1", n)
	}
	if n := len(started); n != 0 {
		t.Fatalf("%d extra executions started", n)
	}
}

// TestServiceStoreHit: records already in the store are served without
// execution and counted as cached.
func TestServiceStoreHit(t *testing.T) {
	sc := baseSpec()
	store := openStore(t)
	rec := execOrFatal(t, sc)
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc := NewService(store, Options{
		Jobs: 1, Metrics: reg,
		ExecuteFunc: func([]Scenario, ExecOptions) ([]Record, error) {
			t.Error("execution despite store hit")
			return nil, errors.New("unreachable")
		},
	})
	defer svc.Close()
	job, err := svc.Submit([]Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || st.Ran != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if recs[0].Hash != rec.Hash {
		t.Fatal("wrong record served")
	}
	if n := reg.Counter("sweep.service.store_hits").Value(); n != 1 {
		t.Fatalf("store_hits=%d, want 1", n)
	}
}

// TestServiceBackpressure: admission is all-or-nothing against
// MaxPending; a rejected submission leaves no orphan tasks and accepted
// jobs still complete.
func TestServiceBackpressure(t *testing.T) {
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	reg := obs.NewRegistry()
	svc := NewService(openStore(t), Options{
		Jobs: 1, MaxPending: 2, Metrics: reg,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			<-release
			return fakeExec(group, opt)
		},
	})
	defer svc.Close()
	defer releaseOnce() // before Close, so a failed check never leaves the worker blocked

	accepted, err := svc.Submit([]Scenario{specN(0), specN(1)}) // fills the bound
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit([]Scenario{specN(2)}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow submission: err=%v, want ErrBackpressure", err)
	}
	if n := reg.Counter("sweep.service.rejected").Value(); n != 1 {
		t.Fatalf("rejected=%d, want 1", n)
	}
	releaseOnce()
	if _, st, err := accepted.Wait(); err != nil || st.Ran != 2 {
		t.Fatalf("accepted job: stats=%+v err=%v", st, err)
	}
	// Capacity freed: the previously rejected scenario is admitted now.
	job, err := svc.Submit([]Scenario{specN(2)})
	if err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
	if _, _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceClosed: Submit after Close fails with ErrClosed.
func TestServiceClosed(t *testing.T) {
	svc := NewService(openStore(t), Options{Jobs: 1})
	svc.Close()
	if _, err := svc.Submit([]Scenario{baseSpec()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err=%v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestServiceEvents: the job's log holds one event per slot with a
// strictly increasing Done counter, all landed before Wait returns.
func TestServiceEvents(t *testing.T) {
	scenarios := []Scenario{specN(0), specN(1), specN(2), specN(0)} // one duplicate
	svc := NewService(openStore(t), Options{Jobs: 2, ExecuteFunc: fakeExec})
	defer svc.Close()
	job, err := svc.Submit(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Every slot has landed, so the replay ends without waiting.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events := slices.Collect(job.Events(ctx))
	seen := make(map[int]bool)
	for n, ev := range events {
		if ev.Done != n+1 {
			t.Fatalf("event %d has Done=%d", n+1, ev.Done)
		}
		if ev.Total != len(scenarios) {
			t.Fatalf("event Total=%d, want %d", ev.Total, len(scenarios))
		}
		if seen[ev.Index] {
			t.Fatalf("slot %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(events) != len(scenarios) {
		t.Fatalf("got %d events, want %d", len(events), len(scenarios))
	}
	st := job.Status()
	if !st.Complete || st.Done != len(scenarios) {
		t.Fatalf("status after completion: %+v", st)
	}
	if st.Unique != 3 {
		t.Fatalf("Unique=%d, want 3", st.Unique)
	}
}

// TestJobEventsNeverBlockWorkers: reading a job's log never holds up
// the workers that land its slots. A job nobody reads completes, and so
// does one whose reader stalls inside its first event; a reader started
// after completion replays every slot; and a reader blocked on a running
// job returns once its context is cancelled, while the job runs on.
func TestJobEventsNeverBlockWorkers(t *testing.T) {
	held := specN(9)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	svc := NewService(openStore(t), Options{
		Jobs: 2,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			if group[0] == held {
				<-release
			}
			return fakeExec(group, opt)
		},
	})
	defer svc.Close()
	defer releaseOnce() // before Close, so a failed check never leaves a worker blocked

	unread, err := svc.Submit([]Scenario{specN(0), specN(1), specN(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := unread.Wait(); err != nil {
		t.Fatal(err)
	}

	scs := []Scenario{specN(3), specN(4), specN(5), specN(3)}
	job, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	stalled, resume := make(chan Event), make(chan struct{})
	resumeOnce := sync.OnceFunc(func() { close(resume) })
	defer resumeOnce() // before Close, so a failed check never leaves the reader stalled
	go func() {
		for ev := range job.Events(context.Background()) {
			stalled <- ev
			<-resume
		}
		close(stalled)
	}()
	<-stalled
	select {
	case <-job.done:
	case <-time.After(30 * time.Second):
		t.Fatal("the job did not complete while its reader stalled")
	}
	if _, _, err := job.Wait(); err != nil {
		t.Fatalf("job with a stalled reader: %v", err)
	}
	resumeOnce()
	n := 1
	for range stalled {
		n++
	}
	if n != len(scs) {
		t.Fatalf("the stalled reader got %d events, want %d", n, len(scs))
	}
	replay := slices.Collect(job.Events(context.Background()))
	if len(replay) != len(scs) {
		t.Fatalf("replay after completion: %d events, want %d", len(replay), len(scs))
	}
	seen := make(map[int]bool)
	for k, ev := range replay {
		if ev.Done != k+1 || ev.Total != len(scs) || seen[ev.Index] || ev.Hash != scs[ev.Index].Hash() {
			t.Fatalf("replayed event %d: %+v", k, ev)
		}
		seen[ev.Index] = true
	}

	running, err := svc.Submit([]Scenario{specN(6), held})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first, got := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for range running.Events(ctx) {
			if n++; n == 1 {
				close(first)
			}
		}
		got <- n
	}()
	<-first // the landed slot is read; the reader now waits on the held one
	cancel()
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("the cancelled reader got %d events of a job with one slot landed", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a reader blocked on a running job did not return when cancelled")
	}
	if st := running.Status(); st.Complete {
		t.Fatalf("the held job completed before its slot was released: %+v", st)
	}
	releaseOnce()
	if _, _, err := running.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceFailure: a failing scenario surfaces once per unique hash
// from Wait, and failed slots hold zero records.
func TestServiceFailure(t *testing.T) {
	bad := specN(0)
	svc := NewService(openStore(t), Options{
		Jobs: 1,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			if group[0].Hash() == bad.Hash() {
				return nil, errors.New("boom")
			}
			return fakeExec(group, opt)
		},
	})
	defer svc.Close()
	job, err := svc.Submit([]Scenario{bad, specN(1), bad}) // failure duplicated
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if err == nil {
		t.Fatal("Wait returned nil error for failing job")
	}
	if st.Failed != 2 || st.Ran != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if recs[0].Hash != "" || recs[2].Hash != "" || recs[1].Hash == "" {
		t.Fatal("failed slots should be zero records, succeeded slot populated")
	}
	// One joined failure per unique hash, like Run.
	if got := len(errors.Join(err).Error()); got == 0 {
		t.Fatal("empty failure")
	}
}

// TestServicePanickingTaskFails: a task whose execution panics — here in
// a span of a 3-worker pool, re-raised on the task's goroutine — fails
// its own scenario with a *PanicError carrying the hash, the panic value
// and the stack. The job's other tasks complete, nothing is stored for
// the failed scenario, and a later job completes, re-running it.
func TestServicePanickingTaskFails(t *testing.T) {
	bad := specN(1)
	var panicking atomic.Bool
	panicking.Store(true)
	store := openStore(t)
	svc := NewService(store, Options{
		Jobs: 2,
		ExecuteFunc: func(group []Scenario, opt ExecOptions) ([]Record, error) {
			if group[0].Hash() == bad.Hash() && panicking.Load() {
				engine.NewPool(3).Do(64*12, func(s engine.Span) {
					if s.Index == 7 {
						panic("span 7")
					}
				})
			}
			return fakeExec(group, opt)
		},
	})
	defer svc.Close()
	scs := []Scenario{specN(0), bad, specN(2)}
	job, err := svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("job error %v, want a *PanicError", err)
	}
	if pe.Value != "span 7" || len(pe.Hashes) != 1 || pe.Hashes[0] != bad.Hash() || len(pe.Stack) == 0 {
		t.Fatalf("panic error: value %v, hashes %v, %d stack bytes", pe.Value, pe.Hashes, len(pe.Stack))
	}
	if st.Failed != 1 || st.Ran != 2 {
		t.Fatalf("stats: %+v, want 2 run and 1 failed", st)
	}
	if recs[0].Hash != specN(0).Hash() || recs[2].Hash != specN(2).Hash() || recs[1].Hash != "" {
		t.Fatalf("records: %q %q %q", recs[0].Hash, recs[1].Hash, recs[2].Hash)
	}
	if _, ok := store.Get(bad.Hash()); ok {
		t.Fatal("a record was stored for the panicked scenario")
	}

	panicking.Store(false)
	job, err = svc.Submit(scs)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := job.Wait(); err != nil || st.Ran != 1 || st.Cached != 2 {
		t.Fatalf("resubmission: stats %+v, err %v; want the panicked scenario re-run", st, err)
	}
}

// TestCompletedJobsRetainNoRecords: a completed job keeps per slot only
// what the store cannot give back — hash, failure, cached flag and
// landing order — and Wait reads each record back from the store. 32
// full-hit jobs of a 256-replicate grid, each freshly expanded as
// sweepd expands a request, may leave at most 128 live heap bytes per
// slot once every job has been waited for and the heap collected.
func TestCompletedJobsRetainNoRecords(t *testing.T) {
	const jobs, replicates, maxPerSlot = 32, 256, 128
	svc := NewService(openStore(t), Options{Jobs: 2})
	defer svc.Close()
	grid := func() []Scenario {
		scs, err := replicateGrid(replicates).Expand()
		if err != nil {
			t.Fatal(err)
		}
		return scs
	}
	fill, err := svc.Submit(grid())
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := fill.Wait(); err != nil || st.Ran != replicates {
		t.Fatalf("filling the store: stats %+v, err %v", st, err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range jobs {
		job, err := svc.Submit(grid())
		if err != nil {
			t.Fatal(err)
		}
		recs, st, err := job.Wait()
		if err != nil || st.Cached != replicates || len(recs) != replicates || recs[replicates-1].Hash != job.hashes[replicates-1] {
			t.Fatalf("full-hit job %s: stats %+v, %d records, err %v", job.ID(), st, len(recs), err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(svc.JobIDs()); n != jobs+1 {
		t.Fatalf("the service holds %d jobs, want %d", n, jobs+1)
	}
	perSlot := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (jobs * replicates)
	t.Logf("%d B retained per completed slot", perSlot)
	if perSlot > maxPerSlot {
		t.Fatalf("completed jobs retain %d B per slot, want at most %d", perSlot, maxPerSlot)
	}
}
