package sweep

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestArtifactCacheRecordsIdentical pins the artifact cache's
// determinism contract: a batch run with a shared graph/code-table
// cache produces byte-identical records (JSONL bytes, measured wall
// fields zeroed) to per-scenario construction with no cache.
func TestArtifactCacheRecordsIdentical(t *testing.T) {
	scs, err := Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{14},
		Params:     []int{3},
		Epsilons:   []float64{0.1, 0.2},
		Engines:    []string{EngineAlg1, EngineTDMA, EngineCongest},
		Workloads:  []string{WorkloadGossip, WorkloadMIS, WorkloadColoring},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   31,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}

	encode := func(recs []Record) [][]byte {
		out := make([][]byte, len(recs))
		for i, r := range recs {
			r.WallNanos, r.BuildNanos = 0, 0
			var buf bytes.Buffer
			if err := EncodeJSONL(&buf, r); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}

	cache := sim.NewCache()
	var cached, uncached []Record
	for _, sc := range scs {
		rec, err := Execute(sc, ExecOptions{Artifacts: cache})
		if err != nil {
			t.Fatalf("cached execute %s: %v", sc.Hash(), err)
		}
		cached = append(cached, rec)
		rec, err = Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatalf("uncached execute %s: %v", sc.Hash(), err)
		}
		uncached = append(uncached, rec)
	}
	a, b := encode(cached), encode(uncached)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("scenario %d (%s): cache-on and cache-off records differ:\n%s\n%s",
				i, scs[i].Hash(), a[i], b[i])
		}
	}

	st := cache.Stats()
	if st.GraphMisses == 0 || st.GraphHits == 0 {
		t.Fatalf("cache never shared a graph: %+v", st)
	}
	// ε/engine/replicate axes share graphs: 2 graph seeds (replicates)
	// cover all 30 scenarios.
	if st.GraphMisses != 2 {
		t.Errorf("graph builds = %d, want 2 (one per replicate seed)", st.GraphMisses)
	}
	if st.CodeMisses == 0 || st.CodeHits == 0 {
		t.Fatalf("cache never shared a code table: %+v", st)
	}
}

// TestBatchUsesSharedArtifacts asserts Run threads one cache through
// its workers (the caller-supplied cache sees the batch's traffic).
func TestBatchUsesSharedArtifacts(t *testing.T) {
	scs, err := Grid{
		Families:   []string{FamilyRegular},
		Ns:         []int{12},
		Params:     []int{2},
		Epsilons:   []float64{0.05, 0.15},
		Engines:    []string{EngineAlg1},
		Rounds:     1,
		Replicates: 2,
		BaseSeed:   8,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache()
	if _, _, err := Run(scs, NewMemStore(), Options{Jobs: 2, Artifacts: cache}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.GraphMisses != 2 || st.GraphHits != 2 {
		t.Errorf("graph traffic = %+v, want 2 misses + 2 hits (ε axis shares each replicate's graph)", st)
	}
	if st.CodeMisses != 2 || st.CodeHits != 2 {
		t.Errorf("code traffic = %+v, want 2 misses + 2 hits (replicates share each ε's tables)", st)
	}
}

// TestGraphCacheSharesSeedFreeFamilies: the artifact cache keys a
// graph by GraphSeed only where the family consumes it — the rule
// sliceKey applies — so a pg or hard grid builds one graph for all its
// replicates, while a regular grid, whose replicates really differ,
// still builds one per replicate.
func TestGraphCacheSharesSeedFreeFamilies(t *testing.T) {
	for _, tc := range []struct {
		family     string
		ns, params []int
		builds     int64
	}{
		{FamilyPG, nil, []int{3}, 1},
		{FamilyHard, []int{16}, []int{3}, 1},
		{FamilyRegular, []int{16}, []int{3}, 4},
	} {
		scs, err := Grid{
			Families:   []string{tc.family},
			Ns:         tc.ns,
			Params:     tc.params,
			Epsilons:   []float64{0.1},
			Engines:    []string{EngineAlg1},
			Workloads:  []string{WorkloadGossip, WorkloadMIS},
			Rounds:     1,
			Replicates: 4,
			BaseSeed:   7,
		}.Expand()
		if err != nil {
			t.Fatal(err)
		}
		cache := sim.NewCache()
		if _, _, err := Run(scs, NewMemStore(), Options{Jobs: 2, Artifacts: cache}); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.GraphMisses != tc.builds || st.GraphHits != int64(len(scs))-tc.builds {
			t.Errorf("%s: graph traffic = %+v over %d scenarios, want %d builds", tc.family, st, len(scs), tc.builds)
		}
	}
}
