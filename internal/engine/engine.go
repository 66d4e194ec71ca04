// Package engine is the shared round-execution substrate of every
// simulator in the reproduction: the beeping network (internal/beep), the
// native CONGEST engines (internal/congest), the TDMA baseline
// (internal/baseline), and the Algorithm 1 runner (internal/core) all
// drive their per-round node phases through one deterministic sharded
// worker pool instead of ad-hoc serial loops or hand-rolled goroutine
// striding, and the streaming graph builder (internal/graph) runs its
// two passes on it too.
//
// # Determinism contract
//
// A Pool never changes what is computed — only where. The vertex range
// [0, n) is decomposed into spans whose boundaries are multiples of 64 and
// depend only on n and the shard count, four per worker. Phase
// callbacks must confine their writes to per-vertex slots (slice elements
// indexed by v) or to bitset words covering their own span — which the
// 64-alignment guarantees never straddle a span boundary — and must draw
// randomness only from per-vertex streams (the rng package's split
// scheme). Under that discipline, which all engines in this repository
// follow, a run with Workers=k is bit-identical to the serial run for
// every k: same outputs, same transcripts, same error values, same
// summed counters. The equivalence tests in each engine package assert
// exactly this.
//
// Reductions preserve determinism the same way: a phase keeps one partial
// per span, indexed by Span.Index, and the caller adds them in span order
// (the beeping network counts each round's beeps so), and an engine that
// validates per vertex keeps one error slot per span and reports the
// lowest-numbered failing span's (congest.Collector), which is the error
// the serial loop would have hit first.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Span is one shard of the vertex range: vertices [Lo, Hi), with Index
// giving its position in the decomposition (spans tile [0, n) in order).
type Span struct {
	Index  int
	Lo, Hi int
}

// Pool executes per-vertex phases over word-aligned spans with a fixed
// number of workers. The zero value is a serial pool with a single span
// (use NewPool for four load-balanced shards per worker); Pools are
// immutable (the span cache aside) and safe for concurrent use.
type Pool struct {
	workers int
	shards  int
	// spans caches the last decomposition: engines call Spans/NumShards
	// several times per round for one fixed n, and the result is a pure
	// function of (n, shards).
	spans atomic.Pointer[spanCache]
	// metrics, when set via Instrument, observes Do calls. Observation
	// only: per the determinism contract it never changes what or where
	// anything is computed.
	metrics atomic.Pointer[poolMetrics]
	// live is DoMasked's reusable list of admitted spans. A call takes it
	// out for its duration and puts it back after, so a steady stream of
	// calls allocates nothing; a concurrent call that finds it taken
	// builds its own.
	live atomic.Pointer[[]Span]
}

// poolMetrics are the pool's telemetry handles: do counts phase
// dispatches (pool.do), spans counts spans executed (pool.spans), and
// wait times each Do call, dispatch to completion barrier — the "span
// wait" a caller experiences (pool.do_wait_nanos).
type poolMetrics struct {
	do    *obs.Counter
	spans *obs.Counter
	wait  *obs.Timer
}

// Instrument reports the pool's dispatches into reg; a nil reg
// detaches. Call once at construction time. Safe concurrently with Do,
// though the intended use is configure-then-run.
func (p *Pool) Instrument(reg *obs.Registry) {
	if p == nil {
		return
	}
	var m *poolMetrics
	if reg != nil {
		m = &poolMetrics{
			do:    reg.Counter("pool.do"),
			spans: reg.Counter("pool.spans"),
			wait:  reg.Timer("pool.do_wait_nanos"),
		}
	}
	p.metrics.Store(m)
}

type spanCache struct {
	n     int
	spans []Span
}

// NewPool returns a pool with the given worker count and four shards
// per worker, which load-balances the workers. workers <= 1 selects
// serial execution; workers == AutoWorkers uses runtime.GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers == AutoWorkers {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, shards: 4 * workers}
}

// AutoWorkers selects runtime.GOMAXPROCS workers in NewPool and in the
// engines' Workers knobs.
const AutoWorkers = -1

// Workers returns the configured worker count (>= 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Parallel reports whether the pool runs phases on multiple goroutines.
func (p *Pool) Parallel() bool { return p.Workers() > 1 }

// NumShards returns the number of spans Spans(n) produces for n vertices.
// Use it to size per-span scratch indexed by Span.Index.
func (p *Pool) NumShards(n int) int { return len(p.Spans(n)) }

// Spans decomposes [0, n) into at most the configured shard count of
// word-aligned spans: every boundary except possibly n itself is a
// multiple of 64, so bitset writes for distinct spans touch distinct
// words. The decomposition depends only on n and the shard count. The
// returned slice is shared (and cached); callers must not modify it.
func (p *Pool) Spans(n int) []Span {
	if n <= 0 {
		return nil
	}
	if p != nil {
		if c := p.spans.Load(); c != nil && c.n == n {
			return c.spans
		}
	}
	shards := 1
	if p != nil && p.shards > 0 {
		shards = p.shards
	}
	words := (n + 63) / 64
	wordsPerSpan := (words + shards - 1) / shards
	if wordsPerSpan < 1 {
		wordsPerSpan = 1
	}
	spans := make([]Span, 0, (words+wordsPerSpan-1)/wordsPerSpan)
	for lo := 0; lo < n; lo += wordsPerSpan * 64 {
		hi := lo + wordsPerSpan*64
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{Index: len(spans), Lo: lo, Hi: hi})
	}
	if p != nil {
		p.spans.Store(&spanCache{n: n, spans: spans})
	}
	return spans
}

// Do runs fn over every span of [0, n), in parallel when the pool has
// multiple workers. It returns when all spans have completed.
func (p *Pool) Do(n int, fn func(Span)) {
	if spans := p.Spans(n); len(spans) > 0 {
		p.dispatch(spans, fn)
	}
}

// DoMasked runs fn over the spans of [0, n) whose vertex range satisfies
// active — the sparse-frontier form of Do, letting engines skip spans
// whose reception window is quiescent. active must be a pure read (it is
// probed serially, in span order, before dispatch); fn sees exactly the
// spans active admitted, executed under the same determinism contract as
// Do. Span.Index still refers to the full decomposition, so per-span
// scratch indexed by it keeps working. The admitted list lives in the
// pool's reusable buffer, so a serial call allocates nothing.
func (p *Pool) DoMasked(n int, active func(lo, hi int) bool, fn func(Span)) {
	spans := p.Spans(n)
	if len(spans) == 0 {
		return
	}
	var buf *[]Span
	if p != nil {
		buf = p.live.Swap(nil)
	}
	if buf == nil {
		buf = new([]Span)
	}
	live := (*buf)[:0]
	for _, s := range spans {
		if active(s.Lo, s.Hi) {
			live = append(live, s)
		}
	}
	*buf = live
	if len(live) > 0 {
		p.dispatch(live, fn)
	}
	if p != nil {
		p.live.Store(buf)
	}
}

// dispatch runs fn over the given spans, counting them as one Do call:
// the shared body of Do and DoMasked.
func (p *Pool) dispatch(spans []Span, fn func(Span)) {
	if p != nil {
		if m := p.metrics.Load(); m != nil {
			m.do.Inc()
			m.spans.Add(int64(len(spans)))
			sp := m.wait.Start()
			defer sp.Stop()
		}
	}
	workers := p.Workers()
	if workers == 1 || len(spans) == 1 {
		for _, s := range spans {
			fn(s)
		}
		return
	}
	if workers > len(spans) {
		workers = len(spans)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &v)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				fn(spans[i])
			}
		}()
	}
	wg.Wait()
	// A span's panic is re-raised here, on the caller's goroutine, where
	// a recover can see it whatever the worker count.
	if v := panicked.Load(); v != nil {
		panic(*v)
	}
}

// AllDone reports whether done(v) holds for every v in [0, n). It scans
// serially with an early exit: on every round but the last the first
// straggler answers in O(1), which beats fanning the scan out to
// workers. done must be a pure read.
func (p *Pool) AllDone(n int, done func(v int) bool) bool {
	for v := 0; v < n; v++ {
		if !done(v) {
			return false
		}
	}
	return true
}

// Loop is the round-execution skeleton shared by every engine: it runs
// step(round) for round = 0, 1, ... until all n nodes are done or
// maxRounds rounds elapse, checking done (AllDone's serial early-exit
// scan) before each round. It returns the number of rounds executed,
// whether every node finished, and the first step error (which aborts
// the loop).
func (p *Pool) Loop(n, maxRounds int, done func(v int) bool, step func(round int) error) (rounds int, allDone bool, err error) {
	for rounds = 0; rounds < maxRounds; rounds++ {
		if p.AllDone(n, done) {
			return rounds, true, nil
		}
		if err := step(rounds); err != nil {
			return rounds, false, err
		}
	}
	return rounds, p.AllDone(n, done), nil
}
