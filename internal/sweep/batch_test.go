package sweep

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func tinyGrid() Grid {
	return Grid{
		Families: []string{FamilyRegular},
		Ns:       []int{12, 16},
		Params:   []int{2},
		Epsilons: []float64{0, 0.1},
		Engines:  []string{EngineAlg1, EngineTDMA},
		Rounds:   2,
		BaseSeed: 11,
	}
}

// TestBatchSecondRunFullyCached is the subsystem's core acceptance
// property: re-running a grid against the same store performs zero
// engine work — every scenario is served from the JSONL records — and
// returns bit-identical results.
func TestBatchSecondRunFullyCached(t *testing.T) {
	scs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	recs1, st1, err := Run(scs, store, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Ran != len(scs) || st1.Cached != 0 || st1.Failed != 0 {
		t.Fatalf("first run stats: %+v", st1)
	}
	store.Close()

	store2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	recs2, st2, err := Run(scs, store2, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ran != 0 || st2.Cached != len(scs) || st2.Failed != 0 {
		t.Fatalf("second run was not fully cached: %+v", st2)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Fatal("cached records differ from fresh records")
	}
}

// TestBatchOrderAndConcurrencyInvariance: records line up with the
// input slice regardless of jobs, and concurrent execution returns the
// same records as serial (wall time aside).
func TestBatchOrderAndConcurrencyInvariance(t *testing.T) {
	scs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	serial, st, err := Run(scs, NewMemStore(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != len(scs) {
		t.Fatalf("grid produced duplicate specs: %+v", st)
	}
	parallel, _, err := Run(scs, NewMemStore(), Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if serial[i].Hash != scs[i].Hash() {
			t.Fatalf("record %d out of order: %s vs %s", i, serial[i].Hash, scs[i].Hash())
		}
		a, b := serial[i], parallel[i]
		a.WallNanos, b.WallNanos = 0, 0
		a.BuildNanos, b.BuildNanos = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d differs between jobs=1 and jobs=8:\n %+v\n %+v", i, a, b)
		}
	}
}

// TestBatchDeduplicatesWithinRun: the same spec listed twice executes
// once; both slots get the record.
func TestBatchDeduplicatesWithinRun(t *testing.T) {
	sc := baseSpec()
	recs, st, err := Run([]Scenario{sc, sc, sc}, NewMemStore(), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != 1 || st.Ran != 1 || st.Cached != 2 {
		t.Fatalf("dedup stats: %+v", st)
	}
	if recs[0].Hash != recs[1].Hash || recs[1].Hash != recs[2].Hash {
		t.Fatal("duplicate slots got different records")
	}
}

// TestBatchReportsFailuresAndKeepsGoing: a failing scenario doesn't
// block the rest.
func TestBatchReportsFailuresAndKeepsGoing(t *testing.T) {
	good := baseSpec()
	bad := baseSpec()
	bad.Family = "no-such-family"
	recs, st, err := Run([]Scenario{bad, good}, NewMemStore(), Options{Jobs: 1})
	if err == nil {
		t.Fatal("expected an error for the invalid scenario")
	}
	if st.Failed != 1 || st.Ran != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if recs[0].Hash != "" {
		t.Fatal("failed slot has a record")
	}
	if recs[1].Hash != good.Hash() {
		t.Fatal("good scenario's record missing")
	}
}

// TestBatchColoringEmptyPalette runs the grid of `sweep -family regular
// -n 16 -delta 2 -eps 0.45 -engine tdma -workload coloring -replicates 3
// -seed 11`, where phantom decoded neighbours empty some node's palette.
// Sampling the empty palette used to panic the worker and with it the
// process; now every scenario completes and reports a failed colouring.
func TestBatchColoringEmptyPalette(t *testing.T) {
	scs, err := Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{16},
		Params:     []int{2},
		Epsilons:   []float64{0.45},
		Engines:    []string{EngineTDMA},
		Workloads:  []string{WorkloadColoring},
		Rounds:     3,
		Replicates: 3,
		BaseSeed:   11,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := Run(scs, NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Cached != 0 || st.Ran != 3 || st.Failed != 0 {
		t.Fatalf("stats %v, want total=3 cached=0 run=3 failed=0", st)
	}
	for _, r := range recs {
		if ok := r.Counters.OutputOK; ok == nil || *ok {
			t.Errorf("%s: output_ok = %v, want false", r.Hash, ok)
		}
	}
}

func TestBatchProgressEvents(t *testing.T) {
	scs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]bool)
	_, _, err = Run(scs, NewMemStore(), Options{
		Jobs: 4,
		Progress: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if seen[ev.Index] {
				t.Errorf("duplicate progress event for scenario %d", ev.Index)
			}
			seen[ev.Index] = true
			if ev.Total != len(scs) || ev.Done < 1 || ev.Done > ev.Total {
				t.Errorf("bad event counters: %+v", ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(scs) {
		t.Fatalf("got %d progress events for %d scenarios", len(seen), len(scs))
	}
}

// TestGridSize: Size predicts Expand's length from the axis lengths —
// exactly when no specs collapse, as an upper bound when the native
// engines' ε axis does — and saturates instead of overflowing.
func TestGridSize(t *testing.T) {
	g := tinyGrid()
	g.Replicates = 3
	g.Families = []string{FamilyRegular, FamilyPG}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != len(scs) {
		t.Fatalf("Size()=%d, Expand produced %d", g.Size(), len(scs))
	}
	g.Engines = append(g.Engines, EngineCongest)
	if scs, err = g.Expand(); err != nil {
		t.Fatal(err)
	}
	if g.Size() < len(scs) {
		t.Fatalf("Size()=%d below Expand's %d", g.Size(), len(scs))
	}
	if n := (Grid{Replicates: 1 << 40, Ns: make([]int, 1<<20), Params: make([]int, 1<<20)}).Size(); n != math.MaxInt {
		t.Fatalf("huge grid Size()=%d, want saturation at math.MaxInt", n)
	}
	if n := (Grid{Replicates: -1}).Size(); n != 0 {
		t.Fatalf("negative replicates Size()=%d, want 0", n)
	}
}

// TestGridSeedStability: a grid point's spec (hence hash, hence cache
// entry) must not change when unrelated axis values are added.
func TestGridSeedStability(t *testing.T) {
	small := tinyGrid()
	big := tinyGrid()
	big.Ns = append(big.Ns, 20)
	big.Epsilons = append(big.Epsilons, 0.2)

	smallScs, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bigScs, err := big.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bigSet := make(map[string]bool, len(bigScs))
	for _, sc := range bigScs {
		bigSet[sc.Hash()] = true
	}
	for _, sc := range smallScs {
		if !bigSet[sc.Hash()] {
			t.Errorf("grid growth changed existing scenario %+v", sc)
		}
	}
}

// TestGridSharedSeeds: engines at the same grid point compare on the
// same graph and algorithm randomness but distinct channel noise.
func TestGridSharedSeeds(t *testing.T) {
	scs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	byPoint := make(map[Key][]Scenario)
	for _, sc := range scs {
		k := KeyOf(sc)
		k.Engine = ""
		byPoint[k] = append(byPoint[k], sc)
	}
	for k, group := range byPoint {
		if len(group) != 2 {
			t.Fatalf("point %+v has %d engines, want 2", k, len(group))
		}
		a, b := group[0], group[1]
		if a.GraphSeed != b.GraphSeed || a.AlgSeed != b.AlgSeed {
			t.Errorf("point %+v: engines do not share graph/alg seeds", k)
		}
		if a.ChannelSeed == b.ChannelSeed {
			t.Errorf("point %+v: engines share channel seed", k)
		}
	}
}

func TestGridReplicatesDiffer(t *testing.T) {
	g := tinyGrid()
	g.Replicates = 3
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(scs) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scs), want)
	}
	seeds := make(map[uint64]bool)
	for _, sc := range scs {
		seeds[sc.ChannelSeed] = true
	}
	if len(seeds) != len(scs) {
		t.Errorf("channel seeds not unique across replicates: %d seeds for %d scenarios", len(seeds), len(scs))
	}
}

// TestGridSkipsUnsupportedPairs: the beep engine only runs natively
// beeping workloads.
func TestGridSkipsUnsupportedPairs(t *testing.T) {
	g := Grid{
		Families:  []string{FamilyRegular},
		Ns:        []int{12},
		Params:    []int{2},
		Epsilons:  []float64{0},
		Engines:   []string{EngineAlg1, EngineBeep},
		Workloads: []string{WorkloadGossip, WorkloadMIS},
		Rounds:    2,
		BaseSeed:  3,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// alg1×{gossip,mis} + beep×mis = 3.
	if len(scs) != 3 {
		t.Fatalf("expanded %d scenarios, want 3: %+v", len(scs), scs)
	}
	for _, sc := range scs {
		if !Supports(sc.Engine, sc.Workload) {
			t.Errorf("unsupported pair emitted: %s/%s", sc.Engine, sc.Workload)
		}
	}
}

// TestGridRefusesUnknownNames: a misspelled engine or workload fails the
// expansion, naming the misspelling and listing the registered names,
// even beside names that would expand; a known pair the engine does not
// support is still skipped (TestGridSkipsUnsupportedPairs).
func TestGridRefusesUnknownNames(t *testing.T) {
	engines := strings.Join(sim.EngineNames(), ", ")
	workloads := strings.Join(sim.WorkloadNames(), ", ")
	for _, tc := range []struct {
		name               string
		engines, workloads []string
	}{
		{"engine", []string{EngineAlg1, "tdmaa"}, []string{WorkloadMIS}},
		{"workload", []string{EngineAlg1}, []string{"matchng", WorkloadMIS}},
		{"both", []string{EngineAlg1, "tdmaa"}, []string{"matchng", WorkloadMIS}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := Grid{
				Families: []string{FamilyRegular}, Ns: []int{16}, Params: []int{2},
				Epsilons: []float64{0.1}, Engines: tc.engines, Workloads: tc.workloads, BaseSeed: 7,
			}
			scs, err := g.Expand()
			if err == nil {
				t.Fatalf("expanded %d scenario(s), want an error", len(scs))
			}
			switch msg := err.Error(); {
			case strings.Contains(msg, `"tdmaa"`) && strings.Contains(msg, engines):
			case strings.Contains(msg, `"matchng"`) && strings.Contains(msg, workloads):
			default:
				t.Fatalf("error %q names no misspelling beside its registry's names", msg)
			}
		})
	}
}

// TestGridNormalizesNativeEngineChannelAxes: native engines ignore ε and
// the channel seed, so Expand zeroes both and grid points differing only
// in ε collapse to one spec hash — which Expand now deduplicates at
// expansion time, so a batch (and its aggregates) never sees the same
// execution under several ε labels.
func TestGridNormalizesNativeEngineChannelAxes(t *testing.T) {
	g := Grid{
		Families: []string{FamilyRegular},
		Ns:       []int{12},
		Params:   []int{2},
		Epsilons: []float64{0, 0.1, 0.2},
		Engines:  []string{EngineCongest},
		Rounds:   2,
		BaseSeed: 5,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("expanded %d scenarios, want 1 (ε axis deduplicated at expansion)", len(scs))
	}
	for _, sc := range scs {
		if sc.Epsilon != 0 || sc.ChannelSeed != 0 {
			t.Errorf("native-engine spec kept channel axes: %+v", sc)
		}
	}
	_, st, err := Run(scs, NewMemStore(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != 1 || st.Ran != 1 || st.Cached != 0 {
		t.Fatalf("deduplicated expansion should run exactly once: %+v", st)
	}
}
