// Package obs is the deterministic telemetry layer: lock-free counters,
// gauges, histograms, and phase timers that the hot layers (core runner,
// beep/baseline channels, engine pool, sweep batch) update while running.
//
// Two contracts govern everything here (DESIGN.md §2.15):
//
//   - Determinism: instrumentation never consumes rng and never branches
//     on channel data. Metrics are write-only from the simulation's point
//     of view — no simulation code path reads a metric — so records are
//     byte-identical with telemetry on or off.
//
//   - Zero cost when disabled: every handle is a typed pointer whose
//     methods no-op on a nil receiver, and a nil *Registry hands out nil
//     handles. Code instruments unconditionally at construction time and
//     pays one predictable nil check per update in the hot loop — no
//     interface dispatch, no allocation, no time.Now on the disabled
//     path (guarded by TestDisabledPathZeroAlloc / the CI bench guard).
//
// Handles come from a Registry keyed by name with get-or-create
// semantics, so independently constructed components (one runner per
// scenario, one pool per network) resolve the same counter and their atomic
// adds merge. Sums of per-shard contributions commute, so totals are
// deterministic even under parallel execution.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named set of metrics. The zero value is not usable; use
// NewRegistry. A nil *Registry is the disabled state: every accessor
// returns a nil handle and Snapshot returns nil.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *Histogram | *Timer | funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// get-or-create: resolving the same name twice returns the same handle;
// resolving it as a different kind is a wiring bug and panics.
func lookup[T any](r *Registry, name string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q registered as %T, requested as %T", name, m, *new(T)))
		}
		return t
	}
	t := make()
	r.metrics[name] = t
	return t
}

// Counter returns the named monotonic counter, creating it if needed.
// Returns nil (a valid no-op handle) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge (a settable level), creating it if
// needed. Returns nil when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram (power-of-two buckets over
// non-negative int64 samples), creating it if needed. Returns nil when
// r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return newHistogram() })
}

// Timer returns the named phase timer (a histogram over span durations
// in nanoseconds), creating it if needed. Returns nil when r is nil.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Timer { return &Timer{h: newHistogram()} })
}

// funcMetric is a pull-based gauge: fn is evaluated at Snapshot time.
type funcMetric struct{ fn func() int64 }

// Func registers a pull-based gauge evaluated at Snapshot time.
// Re-registering a name replaces the function — callers that rebuild
// their data source per run (e.g. a fresh artifact cache) re-point the
// metric rather than leak a closure over the old one. No-op when r is
// nil.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if _, isFunc := m.(funcMetric); !isFunc {
			panic(fmt.Sprintf("obs: metric %q registered as %T, requested as func", name, m))
		}
	}
	r.metrics[name] = funcMetric{fn: fn}
}

// Counter is a monotonic lock-free counter. All methods are safe on a
// nil receiver (no-op) and for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add adds delta to the counter; no-op on nil.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one; no-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable level. All methods are nil-safe and lock-free.
type Gauge struct{ v atomic.Int64 }

// Set stores v; no-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta; no-op on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per possible bit length of a non-negative
// int64 sample (bits.Len64 of 0..2^63-1 is 0..63), so bucketing is a
// single instruction and bucket b holds samples in [2^(b-1), 2^b).
const histBuckets = 64

// Histogram aggregates non-negative int64 samples into power-of-two
// buckets with exact count/sum/min/max. Quantiles are approximate
// (bucket upper bounds). Nil-safe and lock-free.
type Histogram struct {
	count, sum atomic.Int64
	min, max   atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := new(Histogram)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one sample; negative samples clamp to 0. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// quantile returns the upper bound of the bucket containing the q-th
// sample (0 < q <= 1). Approximate by construction: within a factor of
// two of the true value.
func (h *Histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= rank {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return h.max.Load()
}

// Timer measures phase spans into a histogram of nanoseconds. The
// disabled (nil) path never calls time.Now.
type Timer struct{ h *Histogram }

// Span is one in-flight timed phase; obtain via Timer.Start, finish
// with Stop. The zero Span (from a nil Timer) is a no-op.
type Span struct {
	t     *Timer
	start time.Time
}

// Start begins a span. On a nil Timer it returns the zero Span without
// reading the clock.
func (t *Timer) Start() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Stop records the span's duration; no-op on the zero Span.
func (s Span) Stop() {
	if s.t != nil {
		s.t.h.Observe(time.Since(s.start).Nanoseconds())
	}
}

// Observe records an externally measured duration; no-op on nil.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.h.Observe(d.Nanoseconds())
	}
}

// Sum returns the total recorded nanoseconds (0 on nil).
func (t *Timer) Sum() int64 {
	if t == nil {
		return 0
	}
	return t.h.Sum()
}

// Metric is one snapshotted metric. Values are exact for counters,
// gauges, and funcs; histograms and timers report exact count/sum/
// min/max and power-of-two-approximate quantiles.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" | "gauge" | "histogram" | "timer" | "func"
	Value int64  `json:"value,omitempty"`
	Count int64  `json:"count,omitempty"`
	Sum   int64  `json:"sum,omitempty"`
	Min   int64  `json:"min,omitempty"`
	Max   int64  `json:"max,omitempty"`
	P50   int64  `json:"p50,omitempty"`
	P90   int64  `json:"p90,omitempty"`
	P99   int64  `json:"p99,omitempty"`
}

// Snapshot returns every metric's current value, sorted by name so the
// rendering is deterministic. Nil registry snapshots to nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		metrics[name] = m
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(metrics))
	for name, m := range metrics {
		switch v := m.(type) {
		case *Counter:
			out = append(out, Metric{Name: name, Kind: "counter", Value: v.Value()})
		case *Gauge:
			out = append(out, Metric{Name: name, Kind: "gauge", Value: v.Value()})
		case *Histogram:
			out = append(out, histMetric(name, "histogram", v))
		case *Timer:
			out = append(out, histMetric(name, "timer", v.h))
		case funcMetric:
			out = append(out, Metric{Name: name, Kind: "func", Value: v.fn()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func histMetric(name, kind string, h *Histogram) Metric {
	m := Metric{Name: name, Kind: kind, Count: h.Count(), Sum: h.Sum()}
	if m.Count > 0 {
		m.Min = h.min.Load()
		m.Max = h.max.Load()
		m.P50 = h.quantile(0.50)
		m.P90 = h.quantile(0.90)
		m.P99 = h.quantile(0.99)
	}
	return m
}
