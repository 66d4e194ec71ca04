package sim_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(12, 3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runOnce(t *testing.T, g *graph.Graph, eng sim.Engine, wl sim.Workload, workers int) (*core.Result, sim.Extras) {
	t.Helper()
	rounds := 0
	if wl.UsesRounds() {
		rounds = 2
	}
	cfg := sim.Config{
		MsgBits:     wl.MsgBits(g),
		Epsilon:     0.05,
		ChannelSeed: 7,
		AlgSeeds:    []uint64{9},
		Workers:     workers,
		Workload:    wl,
		Rounds:      rounds,
	}
	inst, err := eng.Prepare(g, cfg)
	if err != nil {
		t.Fatalf("%s/%s: prepare: %v", eng.Name(), wl.Name(), err)
	}
	var algs [][]congest.BroadcastAlgorithm
	if eng.DrivesAlgs() {
		algs = [][]congest.BroadcastAlgorithm{wl.Algs(g, rounds)}
	}
	res, extras, err := inst.Run(algs, wl.Budget(g, rounds))
	if err != nil {
		t.Fatalf("%s/%s: run: %v", eng.Name(), wl.Name(), err)
	}
	if len(res) != 1 || len(extras) != 1 {
		t.Fatalf("%s/%s: one lane returned %d results and %d extras", eng.Name(), wl.Name(), len(res), len(extras))
	}
	return res[0], extras[0]
}

// TestConformanceAllWorkloadsAllEngines is the registry conformance
// suite: every registered workload runs on every compatible engine at
// small n, terminates in budget, passes its own Verify, and produces
// bit-identical results serial vs parallel.
func TestConformanceAllWorkloadsAllEngines(t *testing.T) {
	g := testGraph(t)
	pairs := 0
	for _, wn := range sim.WorkloadNames() {
		wl, _ := sim.WorkloadFor(wn)
		for _, en := range sim.EngineNames() {
			eng, _ := sim.EngineFor(en)
			if !eng.Supports(wl) {
				if sim.Supports(en, wn) {
					t.Errorf("Supports(%q, %q) disagrees with engine", en, wn)
				}
				continue
			}
			pairs++
			res, extras := runOnce(t, g, eng, wl, 1)
			if !res.AllDone {
				t.Errorf("%s/%s: did not terminate in budget", en, wn)
			}
			if verr := sim.Verdict(eng, wl, g, res); verr != nil && !errors.Is(verr, sim.ErrUnverified) {
				t.Errorf("%s/%s: verify: %v", en, wn, verr)
			}
			par, parExtras := runOnce(t, g, eng, wl, 3)
			if !reflect.DeepEqual(res, par) {
				t.Errorf("%s/%s: serial and parallel results differ", en, wn)
			}
			if !reflect.DeepEqual(extras, parExtras) {
				t.Errorf("%s/%s: serial and parallel extras differ", en, wn)
			}
		}
	}
	// 7 CONGEST-level workloads × 3 engines + the native beeping MIS and
	// broadcast.
	if want := 7*3 + 2; pairs != want {
		t.Errorf("conformance covered %d engine/workload pairs, want %d", pairs, want)
	}
}

func TestSupportsMatrix(t *testing.T) {
	for _, wn := range sim.WorkloadNames() {
		for _, en := range []string{sim.EngineAlg1, sim.EngineTDMA, sim.EngineCongest} {
			if !sim.Supports(en, wn) {
				t.Errorf("Supports(%q, %q) = false, want true", en, wn)
			}
		}
		want := wn == sim.WorkloadMIS || wn == sim.WorkloadBroadcast // the native beeping implementations
		if got := sim.Supports(sim.EngineBeep, wn); got != want {
			t.Errorf("Supports(beep, %q) = %v, want %v", wn, got, want)
		}
	}
	if sim.Supports("nope", sim.WorkloadMIS) || sim.Supports(sim.EngineAlg1, "nope") {
		t.Error("unknown names must be unsupported")
	}
	if !sim.IsNative(sim.EngineCongest) || !sim.IsNative(sim.EngineBeep) ||
		sim.IsNative(sim.EngineAlg1) || sim.IsNative(sim.EngineTDMA) || sim.IsNative("nope") {
		t.Error("IsNative misclassifies an engine")
	}
}

// TestVerifyOutputTypeError pins the satellite fix for the old
// panic-prone o.(bool) assertion: wrong-typed outputs surface as a
// typed, recoverable error.
func TestVerifyOutputTypeError(t *testing.T) {
	g := testGraph(t)
	for _, wn := range sim.WorkloadNames() {
		wl, _ := sim.WorkloadFor(wn)
		bad := make([]any, g.N())
		for i := range bad {
			bad[i] = struct{}{} // matches no workload's output type
		}
		err := wl.Verify(g, bad)
		if errors.Is(err, sim.ErrUnverified) {
			continue // no output-validity notion (gossip)
		}
		var typeErr *sim.OutputTypeError
		if !errors.As(err, &typeErr) {
			t.Errorf("%s: Verify(garbage) = %v, want *OutputTypeError", wn, err)
			continue
		}
		if typeErr.Workload != wn {
			t.Errorf("%s: OutputTypeError names workload %q", wn, typeErr.Workload)
		}
	}
}

// TestBeepEngineReportsChannelCounters: the native beeping engine hands
// the scenario's metrics registry to its network, so every native run is
// counted — beep.rounds matches the result's BeepRounds exactly.
func TestBeepEngineReportsChannelCounters(t *testing.T) {
	g := testGraph(t)
	eng, _ := sim.EngineFor(sim.EngineBeep)
	for _, wn := range []string{sim.WorkloadMIS, sim.WorkloadBroadcast} {
		wl, _ := sim.WorkloadFor(wn)
		reg := obs.NewRegistry()
		inst, err := eng.Prepare(g, sim.Config{MsgBits: wl.MsgBits(g), AlgSeeds: []uint64{9}, Workload: wl, Metrics: reg})
		if err != nil {
			t.Fatalf("%s: prepare: %v", wn, err)
		}
		results, _, err := inst.Run(nil, wl.Budget(g, 0))
		if err != nil {
			t.Fatalf("%s: run: %v", wn, err)
		}
		res := results[0]
		if got := reg.Counter("beep.rounds").Value(); got == 0 || got != int64(res.BeepRounds) {
			t.Errorf("%s: beep.rounds = %d, want the run's %d beep rounds", wn, got, res.BeepRounds)
		}
		if reg.Counter("beep.beeps").Value() == 0 {
			t.Errorf("%s: beep.beeps not counted", wn)
		}
	}
}

// TestEngineLanes pins each engine's lane count: TDMA runs 64 replicates
// together on a channel that cannot flip a bit and one otherwise, every
// other engine one. A one-lane engine refuses a second seed or
// algorithm set, and every TDMA lane returns its own result and Extras.
func TestEngineLanes(t *testing.T) {
	g := testGraph(t)
	wl, _ := sim.WorkloadFor(sim.WorkloadGossip)
	for _, tc := range []struct {
		engine string
		cfg    sim.Config
		want   int
	}{
		{sim.EngineTDMA, sim.Config{}, 64},
		{sim.EngineTDMA, sim.Config{Noise: "asymmetric:0:0"}, 64},
		{sim.EngineTDMA, sim.Config{Noise: "jam:0:10"}, 64},
		{sim.EngineTDMA, sim.Config{Epsilon: 0.05}, 1},
		{sim.EngineTDMA, sim.Config{Noise: "jam:1:10"}, 1},
		{sim.EngineAlg1, sim.Config{}, 1},
		{sim.EngineCongest, sim.Config{}, 1},
		{sim.EngineBeep, sim.Config{}, 1},
	} {
		eng, _ := sim.EngineFor(tc.engine)
		if got := eng.Lanes(tc.cfg); got != tc.want {
			t.Errorf("%s ε=%v %q: Lanes = %d, want %d", tc.engine, tc.cfg.Epsilon, tc.cfg.Noise, got, tc.want)
		}
	}
	for _, en := range []string{sim.EngineAlg1, sim.EngineCongest} {
		eng, _ := sim.EngineFor(en)
		cfg := sim.Config{MsgBits: wl.MsgBits(g), Workload: wl, Rounds: 1, AlgSeeds: []uint64{1, 2}}
		if _, err := eng.Prepare(g, cfg); err == nil {
			t.Errorf("%s accepted two algorithm seeds", en)
		}
		cfg.AlgSeeds = cfg.AlgSeeds[:1]
		inst, err := eng.Prepare(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		two := [][]congest.BroadcastAlgorithm{wl.Algs(g, 1), wl.Algs(g, 1)}
		if _, _, err := inst.Run(two, 3); err == nil {
			t.Errorf("%s ran two algorithm sets", en)
		}
	}
	eng, _ := sim.EngineFor(sim.EngineTDMA)
	inst, err := eng.Prepare(g, sim.Config{MsgBits: wl.MsgBits(g), Workload: wl, Rounds: 1, AlgSeeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	algs := [][]congest.BroadcastAlgorithm{wl.Algs(g, 1), wl.Algs(g, 1), wl.Algs(g, 1)}
	res, extras, err := inst.Run(algs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || len(extras) != 3 || extras[2][sim.ExtraColors] == 0 {
		t.Fatalf("3 TDMA lanes returned %d results and extras %v", len(res), extras)
	}
}

func TestBeepEngineRejectsNonNativeWorkload(t *testing.T) {
	g := testGraph(t)
	eng, _ := sim.EngineFor(sim.EngineBeep)
	wl, _ := sim.WorkloadFor(sim.WorkloadGossip)
	if _, err := eng.Prepare(g, sim.Config{Workload: wl}); err == nil {
		t.Fatal("beep engine accepted a workload with no native implementation")
	}
}

func TestCacheGraphBuildsOnce(t *testing.T) {
	c := sim.NewCache()
	key := sim.GraphKey{Family: "regular", N: 16, Param: 3, Seed: 11}
	builds := 0
	var mu sync.Mutex
	build := func() (*graph.Graph, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return graph.RandomRegular(16, 3, rng.New(11))
	}
	var wg sync.WaitGroup
	got := make([]*graph.Graph, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Graph(key, build)
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("concurrent lookups returned distinct graph instances")
		}
	}
	st := c.Stats()
	if st.GraphMisses != 1 || st.GraphHits != 7 {
		t.Fatalf("stats = %+v, want 1 miss / 7 hits", st)
	}
}

func TestCacheCodesSharedAndKeyed(t *testing.T) {
	c := sim.NewCache()
	p := core.DefaultParams(16, 3, 8, 0.1)
	a, err := c.Codes(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Codes(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same Params produced distinct code tables")
	}
	q := p
	q.Epsilon = 0.2
	other, err := c.Codes(q)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Fatal("different Params shared one code-table entry")
	}
	if st := c.Stats(); st.CodeMisses != 2 || st.CodeHits != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 hit", st)
	}
}

func TestCacheBounded(t *testing.T) {
	c := sim.NewCache()
	build := func(n int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return graph.Cycle(n), nil }
	}
	for i := 0; i < sim.DefaultMaxGraphs+10; i++ {
		if _, err := c.Graph(sim.GraphKey{Family: "cycle", N: i + 3}, build(i+3)); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest entries were evicted: re-asking for key 0 rebuilds.
	if _, err := c.Graph(sim.GraphKey{Family: "cycle", N: 3}, build(3)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.GraphMisses != int64(sim.DefaultMaxGraphs)+11 || st.GraphHits != 0 {
		t.Fatalf("stats = %+v, want %d misses (bounded eviction) and 0 hits", st, sim.DefaultMaxGraphs+11)
	}
}

func TestNilCacheBuildsDirectly(t *testing.T) {
	var c *sim.Cache
	g, err := c.Graph(sim.GraphKey{Family: "cycle", N: 5}, func() (*graph.Graph, error) { return graph.Cycle(5), nil })
	if err != nil || g.N() != 5 {
		t.Fatalf("nil cache Graph = %v, %v", g, err)
	}
	if _, err := c.Codes(core.DefaultParams(8, 2, 6, 0)); err != nil {
		t.Fatalf("nil cache Codes: %v", err)
	}
	if st := c.Stats(); st != (sim.CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}
