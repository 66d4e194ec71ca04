package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("resolving a counter name as a gauge should panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100, -5} { // -5 clamps to 0
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 106 {
		t.Fatalf("count/sum = %d/%d, want 5/106", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot size = %d, want 1", len(snap))
	}
	m := snap[0]
	if m.Min != 0 || m.Max != 100 {
		t.Fatalf("min/max = %d/%d, want 0/100", m.Min, m.Max)
	}
	// Quantiles are power-of-two upper bounds: the 3rd of 5 samples (p50,
	// value 2) lands in bucket [2,4) -> 3; p99 covers 100 in [64,128) -> 127.
	if m.P50 != 3 {
		t.Fatalf("p50 = %d, want 3", m.P50)
	}
	if m.P99 != 127 {
		t.Fatalf("p99 = %d, want 127", m.P99)
	}
}

func TestHistogramLargeSample(t *testing.T) {
	h := newHistogram()
	h.Observe(math.MaxInt64)
	if h.Count() != 1 || h.max.Load() != math.MaxInt64 {
		t.Fatal("max sample not recorded exactly")
	}
	if got := h.quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("top-bucket quantile = %d, want MaxInt64", got)
	}
}

func TestTimerSpans(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("t")
	sp := tm.Start()
	sp.Stop()
	tm.Observe(5 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("timer count = %d, want 2", tm.Count())
	}
	if tm.Sum() < (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("timer sum = %dns, want >= 5ms", tm.Sum())
	}
}

func TestFuncMetricReplaces(t *testing.T) {
	r := NewRegistry()
	r.Func("f", func() int64 { return 1 })
	r.Func("f", func() int64 { return 2 }) // re-register replaces
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 {
		t.Fatalf("func metric = %+v, want value 2", snap)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Gauge("a").Set(1)
	r.Timer("m").Observe(time.Microsecond)
	snap := r.Snapshot()
	var names []string
	for _, m := range snap {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "a,m,z" {
		t.Fatalf("snapshot order = %v, want [a m z]", names)
	}
	if snap[0].Kind != "gauge" || snap[1].Kind != "timer" || snap[2].Kind != "counter" {
		t.Fatalf("snapshot kinds wrong: %+v", snap)
	}
}

// Nil handles are the disabled state: every method must be a safe no-op
// and every read must return zero.
func TestNilHandlesNoOp(t *testing.T) {
	var r *Registry
	c, g, h, tm := r.Counter("c"), r.Gauge("g"), r.Histogram("h"), r.Timer("t")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(9)
	sp := tm.Start()
	sp.Stop()
	tm.Observe(time.Second)
	r.Func("f", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tm.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
}

// The zero-overhead contract from ISSUE 7 / DESIGN.md §2.15: the
// disabled (nil-handle) path must not allocate. AllocsPerRun is exact
// and deterministic, unlike ns/op, so this is the tier-1 guard; the
// ns-level bound lives in the benchmarks that scripts/bench.sh and the
// CI telemetry-guard step run.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Registry
	c, h, tm := r.Counter("c"), r.Histogram("h"), r.Timer("t")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(7)
		sp := tm.Start()
		sp.Stop()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation path allocates %.1f times per op, want 0", allocs)
	}
}

// The enabled path must not allocate either — handles are resolved once
// at construction; updates are pure atomics.
func TestEnabledPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c, h := r.Counter("c"), r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(33)
	})
	if allocs != 0 {
		t.Fatalf("enabled instrumentation path allocates %.1f times per op, want 0", allocs)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared") // get-or-create race on one name
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("beep.rounds").Add(128)
	r.Timer("core.phase.decode_nanos").Observe(2 * time.Millisecond)
	var sb strings.Builder
	if err := WriteSummary(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"metric", "beep.rounds", "128", "core.phase.decode_nanos", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// Disabled registry renders nothing.
	sb.Reset()
	if err := WriteSummary(&sb, nil); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry summary: err=%v out=%q", err, sb.String())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	var sb strings.Builder
	meta := map[string]any{"run": "test"}
	if err := WriteJSONL(&sb, meta, r); err != nil {
		t.Fatal(err)
	}
	line := sb.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("JSONL line must be exactly one newline-terminated line: %q", line)
	}
	var decoded struct {
		Meta    map[string]any `json:"meta"`
		Metrics []Metric       `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("telemetry line is not valid JSON: %v", err)
	}
	if decoded.Meta["run"] != "test" || len(decoded.Metrics) != 1 || decoded.Metrics[0].Value != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
}

// Count returns the number of recorded spans (0 on nil).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.h.Count()
}
