package sweep

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// pr4Grid is the grid the PR 4 tree generated testdata/pr4_records.jsonl
// from (unique specs, wall fields zeroed, sorted by hash). It predates
// the noise axis, so every spec is a symmetric-channel spec.
func pr4Grid() Grid {
	return Grid{
		Families:   []string{FamilyRegular, FamilyGrid},
		Ns:         []int{14},
		Params:     []int{3},
		Epsilons:   []float64{0.1, 0.2},
		Engines:    []string{EngineAlg1, EngineTDMA, EngineCongest},
		Workloads:  []string{WorkloadGossip, WorkloadMIS},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   2023,
	}
}

// nativeBeepGrid is the grid testdata/native_beep_records.jsonl was
// generated from (unique specs, wall fields zeroed, sorted by hash), by
// the tree in which every beep.Env still carried a pre-built per-node
// stream. Leader election has no native beeping implementation, so
// Expand drops that axis point: the file holds the mis and broadcast
// records of every family and replicate.
func nativeBeepGrid() Grid {
	return Grid{
		Families:   []string{FamilyGrid, FamilyRegular, FamilyGeo},
		Ns:         []int{40},
		Params:     []int{5},
		Engines:    []string{EngineBeep},
		Workloads:  []string{WorkloadMIS, WorkloadLeader, WorkloadBroadcast},
		Replicates: 2,
		BaseSeed:   2023,
	}
}

// tdmaGrid is the grid testdata/tdma_records.jsonl was generated from
// (unique specs, wall fields zeroed, sorted by hash) by the tree in
// which a quiet TDMA replicate run alone still beeped and
// majority-decoded its windows, and quiet replicates of one spec ran
// through a separate lane runner; both gave these bytes. It covers
// every workload on a quiet symmetric channel, the zero-duty jammer and
// two noisy rates, on a family whose replicates run alone (regular) and
// one whose replicates share a lane group (hard). At ε = 0.4 every
// record scores decode errors, so who is scored is pinned too.
func tdmaGrid() Grid {
	return Grid{
		Families: []string{FamilyRegular, FamilyHard},
		Ns:       []int{16},
		Params:   []int{3},
		Epsilons: []float64{0, 0.1, 0.4},
		Noises:   []string{"", "jam:0:10"},
		Engines:  []string{EngineTDMA},
		Workloads: []string{WorkloadGossip, WorkloadMIS, WorkloadColoring, WorkloadLeader,
			WorkloadMatching, WorkloadBFSTree, WorkloadBroadcast},
		Rounds:     2,
		Replicates: 2,
		BaseSeed:   2023,
	}
}

func readGolden(t testing.TB) [][]byte {
	t.Helper()
	return readGoldenFile(t, "pr4_records.jsonl")
}

// readGoldenFile reads a golden JSONL file from testdata, one record line
// per element.
func readGoldenFile(t testing.TB, name string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]byte
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		lines = append(lines, append([]byte(nil), scan.Bytes()...))
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenPR4RecordsByteIdentical is the cross-model regression
// anchor: with the default symmetric channel, the pluggable-noise tree
// reproduces the records the PR 4 tree stored byte-for-byte — with the
// artifact cache on and off. The golden file was generated by the
// pre-noise code, so any drift in specs, hashes, seeds, channel
// consumption, decoding, or JSON encoding fails here.
func TestGoldenPR4RecordsByteIdentical(t *testing.T) {
	golden := readGolden(t)
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(golden) {
		t.Fatalf("grid expands to %d unique specs, golden has %d", len(scs), len(golden))
	}
	for name, cache := range map[string]*sim.Cache{"cache-on": sim.NewCache(), "cache-off": nil} {
		t.Run(name, func(t *testing.T) {
			byHash := make(map[string][]byte, len(scs))
			for _, sc := range scs {
				rec, err := Execute(sc, ExecOptions{Artifacts: cache})
				if err != nil {
					t.Fatalf("%s: %v", sc.Hash(), err)
				}
				byHash[rec.Hash] = encodeZeroed(t, rec)
			}
			assertGolden(t, golden, byHash)
		})
	}
}

// assertGolden checks that every golden line was produced, byte for
// byte, among the encoded records keyed by hash.
func assertGolden(t *testing.T, golden [][]byte, byHash map[string][]byte) {
	t.Helper()
	for i, want := range golden {
		rec, err := DecodeRecord(want)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		got, ok := byHash[rec.Hash]
		if !ok {
			t.Fatalf("golden record %s not produced by the grid", rec.Hash)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %s differs from golden:\n got %s\nwant %s", rec.Hash, got, want)
		}
	}
}

// TestGoldenNativeBeepRecordsByteIdentical pins the native beeping engine
// (the sparse wave broadcast and the randomized MIS) to records stored
// before program randomness moved from Env into the programs' Init: the
// MIS stream, the wave's schedule and every round count must be
// unchanged.
func TestGoldenNativeBeepRecordsByteIdentical(t *testing.T) {
	golden := readGoldenFile(t, "native_beep_records.jsonl")
	scs, err := nativeBeepGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(golden) {
		t.Fatalf("grid expands to %d unique specs, golden has %d", len(scs), len(golden))
	}
	byHash := make(map[string][]byte, len(scs))
	for _, sc := range scs {
		rec, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Hash(), err)
		}
		byHash[rec.Hash] = encodeZeroed(t, rec)
	}
	assertGolden(t, golden, byHash)
}

// TestGoldenTDMARecordsByteIdentical pins the TDMA runner to records
// it did not produce: every scenario run alone and the grid run through
// the batch scheduler, where quiet hard-family replicates share a lane
// group, must both reproduce the golden bytes.
func TestGoldenTDMARecordsByteIdentical(t *testing.T) {
	golden := readGoldenFile(t, "tdma_records.jsonl")
	scs, err := tdmaGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(golden) {
		t.Fatalf("grid expands to %d unique specs, golden has %d", len(scs), len(golden))
	}
	t.Run("alone", func(t *testing.T) {
		byHash := make(map[string][]byte, len(scs))
		for _, sc := range scs {
			rec, err := Execute(sc, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", sc.Hash(), err)
			}
			byHash[rec.Hash] = encodeZeroed(t, rec)
		}
		assertGolden(t, golden, byHash)
	})
	t.Run("grouped", func(t *testing.T) {
		reg := obs.NewRegistry()
		recs, st, err := Run(scs, NewMemStore(), Options{Jobs: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if st.Ran != len(scs) || st.Failed != 0 {
			t.Fatalf("stats: %+v", st)
		}
		byHash := make(map[string][]byte, len(recs))
		for _, rec := range recs {
			byHash[rec.Hash] = encodeZeroed(t, rec)
		}
		assertGolden(t, golden, byHash)
		for _, m := range reg.Snapshot() {
			if m.Name == "sweep.exec.sliced_lanes" && m.Max < 2 {
				t.Errorf("no lane group formed (largest %d lanes)", m.Max)
			}
		}
	})
}

// TestGoldenPR4StoreServesFullCacheHits loads the PR 4 records into a
// store file — simulating a result store written before the noise axis
// existed — and re-runs the grid through the batch scheduler: every
// scenario must be served from the old store with zero engine work.
func TestGoldenPR4StoreServesFullCacheHits(t *testing.T) {
	golden := readGolden(t)
	path := filepath.Join(t.TempDir(), "pr4.jsonl")
	if err := os.WriteFile(path, bytes.Join(append(golden, nil), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if d := store.Dropped(); d != 0 {
		t.Fatalf("old-format store dropped %d lines", d)
	}
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Run(scs, store, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != len(scs) || st.Ran != 0 || st.Failed != 0 {
		t.Fatalf("old store did not serve a full cache hit: %+v", st)
	}
}
