package sim_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestCacheEvictionSkipsInFlight forces an overflow while a slow build
// is in flight. The in-flight entry must survive eviction: the waiter
// keeps the entry that ends up cached, and a concurrent lookup of the
// same key joins the in-flight build instead of rebuilding — the
// regression the oldest-first eviction had, where the overflow dropped
// the building entry and handed the key a second build.
func TestCacheEvictionSkipsInFlight(t *testing.T) {
	c := sim.NewCacheBounded(1, 1)
	key1 := sim.GraphKey{Family: "cycle", N: 8, Seed: 1}
	key2 := sim.GraphKey{Family: "cycle", N: 9, Seed: 2}

	var builds1 atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	slowBuild := func() (*graph.Graph, error) {
		builds1.Add(1)
		close(started)
		<-release
		return graph.Cycle(8), nil
	}

	var wg sync.WaitGroup
	var fromWaiter, fromJoiner *graph.Graph
	wg.Add(1)
	go func() {
		defer wg.Done()
		g, err := c.Graph(key1, slowBuild)
		if err != nil {
			t.Error(err)
		}
		fromWaiter = g
	}()
	<-started

	// Overflow the one-entry bound while key1 is mid-build. The bound is
	// allowed to stretch; key1 must not be dropped.
	if _, err := c.Graph(key2, func() (*graph.Graph, error) { return graph.Cycle(9), nil }); err != nil {
		t.Fatal(err)
	}

	// A second lookup of key1 while its build is in flight must join
	// that build, not start another.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g, err := c.Graph(key1, func() (*graph.Graph, error) {
			t.Error("in-flight entry was rebuilt after eviction")
			return graph.Cycle(8), nil
		})
		if err != nil {
			t.Error(err)
		}
		fromJoiner = g
	}()

	close(release)
	wg.Wait()
	if n := builds1.Load(); n != 1 {
		t.Fatalf("key1 built %d times, want 1", n)
	}
	if fromWaiter == nil || fromWaiter != fromJoiner {
		t.Fatal("waiter and joiner hold different graph instances")
	}

	// Once built, the entry becomes evictable again: a third key pushes
	// the (now oldest built) key1 out, and re-asking rebuilds it.
	if _, err := c.Graph(sim.GraphKey{Family: "cycle", N: 10, Seed: 3}, func() (*graph.Graph, error) { return graph.Cycle(10), nil }); err != nil {
		t.Fatal(err)
	}
	rebuilt := false
	if _, err := c.Graph(key1, func() (*graph.Graph, error) {
		rebuilt = true
		return graph.Cycle(8), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("built entries are no longer evictable")
	}
}

// TestCacheServesFailedBuild: a failed build stays cached like any
// other entry. A second lookup of its key is served the very error the
// build returned, with no second build, for either artifact kind. A
// build that panics counts as failed: its caller sees the panic, a
// later lookup an error, and the entry can still be evicted.
func TestCacheServesFailedBuild(t *testing.T) {
	c := sim.NewCache()
	key := sim.GraphKey{Family: "cycle", N: 2}
	errBuild := errors.New("cycle needs 3 vertices")
	var builds int
	build := func() (*graph.Graph, error) {
		builds++
		return nil, errBuild
	}
	for i := 0; i < 2; i++ {
		if g, err := c.Graph(key, build); g != nil || err != errBuild {
			t.Fatalf("graph lookup %d = (%v, %v), want (nil, %v)", i, g, err, errBuild)
		}
	}
	if builds != 1 {
		t.Fatalf("failed graph built %d times, want 1", builds)
	}

	// R = 0 leaves no codeword weight, which BuildCodes refuses. A
	// rebuild would wrap a new error value, so the cached entry is the
	// only way both lookups return the identical one.
	p := core.DefaultParams(16, 3, 8, 0.1)
	p.R = 0
	first, err := c.Codes(p)
	if first != nil || err == nil {
		t.Fatalf("codes with R = 0 = (%v, %v), want an error", first, err)
	}
	if again, err2 := c.Codes(p); again != nil || err2 != err {
		t.Fatalf("second codes lookup = (%v, %v), want the cached (nil, %v)", again, err2, err)
	}
	want := sim.CacheStats{GraphHits: 1, GraphMisses: 1, CodeHits: 1, CodeMisses: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}

	small := sim.NewCacheBounded(1, 1)
	boom := sim.GraphKey{Family: "cycle", N: 1}
	var panics int
	lookup := func() (g *graph.Graph, panicked bool, err error) {
		defer func() { panicked = recover() != nil }()
		g, err = small.Graph(boom, func() (*graph.Graph, error) { panics++; panic("boom") })
		return g, false, err
	}
	if _, panicked, _ := lookup(); !panicked {
		t.Fatal("the panicking build's caller did not see the panic")
	}
	if g, panicked, err := lookup(); panicked || g != nil || err == nil || panics != 1 {
		t.Fatalf("lookup after a panicked build = (%v, panicked %v, %v) after %d builds, want an error and 1 build", g, panicked, err, panics)
	}
	// Bound 1: the next key evicts the panicked entry, so it builds again.
	if _, err := small.Graph(sim.GraphKey{Family: "cycle", N: 3}, func() (*graph.Graph, error) { return graph.Cycle(3), nil }); err != nil {
		t.Fatal(err)
	}
	if _, panicked, _ := lookup(); !panicked || panics != 2 {
		t.Fatalf("after eviction: panicked %v after %d builds, want a second build", panicked, panics)
	}
}

// TestCacheCodesKeyedByNoise: the decode-table cache key is the full
// Params including the channel spec — equal sizes under different
// channels must not share tables (their thresholds differ).
func TestCacheCodesKeyedByNoise(t *testing.T) {
	c := sim.NewCache()
	sym := core.DefaultParams(16, 3, 8, 0.2)
	asym, err := core.DefaultParamsNoise(16, 3, 8, 0, "asymmetric:0.05:0.2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Codes(sym)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Codes(asym)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different channels shared one code-table entry")
	}
	if st := c.Stats(); st.CodeMisses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}

// TestSupportsNoise: every engine accepts the default channel; only the
// engines that simulate over beeps accept a model, and the spec must
// name a registered model.
func TestSupportsNoise(t *testing.T) {
	const burst = "gilbert-elliott:0.02:0.3:0.05:0.25"
	cases := []struct {
		engine, spec string
		want         bool
	}{
		{sim.EngineAlg1, "", true},
		{sim.EngineTDMA, "", true},
		{sim.EngineCongest, "", true},
		{sim.EngineBeep, "", true},
		{sim.EngineAlg1, burst, true},
		{sim.EngineTDMA, burst, true},
		{sim.EngineCongest, burst, false},
		{sim.EngineBeep, burst, false},
		{sim.EngineAlg1, "bogus:1", false},
		{"nope", "", false},
	}
	for _, tc := range cases {
		if got := sim.SupportsNoise(tc.engine, tc.spec); got != tc.want {
			t.Errorf("SupportsNoise(%q, %q) = %v, want %v", tc.engine, tc.spec, got, tc.want)
		}
	}
}
