package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// replicateGrid is the canonical lane-group workload: one grid point
// on a quiet channel, the TDMA engine (64 lanes there), and a full
// word of replicates. The grid family derives its topology without
// GraphSeed, so all 64 replicates share one sliceKey and coalesce into
// a single lane group.
func replicateGrid(replicates int) Grid {
	return Grid{
		Families:   []string{FamilyGrid},
		Params:     []int{3},
		Epsilons:   []float64{0},
		Engines:    []string{EngineTDMA},
		Workloads:  []string{WorkloadGossip},
		Rounds:     2,
		Replicates: replicates,
		BaseSeed:   77,
	}
}

// encodeZeroed renders a record as its stored JSONL line with the two
// non-deterministic timing fields zeroed — the byte-identity currency
// of the determinism contract (DESIGN.md §4).
func encodeZeroed(t *testing.T, rec Record) []byte {
	t.Helper()
	rec.WallNanos, rec.BuildNanos = 0, 0
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// assertExecuteEach pins records to the one-lane reference: each scenario
// run on its own through Execute must store the same bytes (timing
// fields aside).
func assertExecuteEach(t *testing.T, scs []Scenario, recs []Record) {
	t.Helper()
	for i, sc := range scs {
		want, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeZeroed(t, recs[i]), encodeZeroed(t, want); !bytes.Equal(got, want) {
			t.Fatalf("scenario %d (%s, noise %q, replicate %d) differs from Execute:\n got %s\nwant %s",
				i, sc.Engine, sc.Noise, sc.Replicate, got, want)
		}
	}
}

// TestSliceGroups pins the lane-group scheduler: full-word splitting,
// the noiseless-channel rule, the one-lane-engine fallback, and the
// graph-seed rule that keeps random families out of groups.
func TestSliceGroups(t *testing.T) {
	base := Scenario{
		Family: FamilyGrid, Param: 3,
		Engine: EngineTDMA, Workload: WorkloadGossip, Rounds: 2,
	}
	scs := make([]Scenario, 70)
	order := make([]int, 70)
	for r := range scs {
		sc := base
		sc.Replicate = r
		sc.GraphSeed = 100 + uint64(r) // grid family ignores it
		sc.ChannelSeed = 200 + uint64(r)
		sc.AlgSeed = 300 + uint64(r)
		scs[r] = sc
		order[r] = r
	}

	// 70 quiet replicates of one point overflow a word: 64 + 6.
	groups := sliceGroups(scs, order)
	if len(groups) != 2 || len(groups[0]) != 64 || len(groups[1]) != 6 {
		t.Fatalf("70 replicates grouped as %d groups (sizes %d, ...), want 64+6",
			len(groups), len(groups[0]))
	}

	// Only channels that cannot flip a bit group: ε = 0.1 replicates
	// stay singletons, while a noiseless model groups like ε = 0.
	for _, c := range []struct {
		eps    float64
		noise  string
		groups int
	}{
		{eps: 0.1, groups: 8},
		{noise: "asymmetric:0:0", groups: 1},
		{noise: "asymmetric:0.01:0", groups: 8},
	} {
		chans := append([]Scenario(nil), scs[:8]...)
		for i := range chans {
			chans[i].Epsilon, chans[i].Noise = c.eps, c.noise
		}
		if got := len(sliceGroups(chans, order[:8])); got != c.groups {
			t.Errorf("ε=%v noise=%q: 8 replicates grouped as %d groups, want %d", c.eps, c.noise, got, c.groups)
		}
	}

	// A one-lane engine interleaved in the same order stays in
	// singletons without breaking the TDMA scenarios' grouping.
	mixed := append([]Scenario(nil), scs[:8]...)
	for i := range mixed {
		if i%2 == 1 {
			mixed[i].Engine = EngineAlg1
		}
	}
	groups = sliceGroups(mixed, order[:8])
	if len(groups) != 5 {
		t.Fatalf("mixed engines grouped as %d groups, want 5 (one tdma group + 4 alg1 singletons)", len(groups))
	}
	if want := []int{0, 2, 4, 6}; !reflect.DeepEqual(groups[0], want) {
		t.Fatalf("tdma lane group is %v, want %v (alg1 scenarios interleave as singletons)", groups[0], want)
	}
	for _, g := range groups[1:] {
		if len(g) != 1 || mixed[g[0]].Engine != EngineAlg1 {
			t.Fatalf("expected alg1 singleton, got group %v", g)
		}
	}

	// Random families consume GraphSeed, so replicates with distinct
	// seeds are distinct topologies — never lanes of one run.
	random := append([]Scenario(nil), scs[:4]...)
	for i := range random {
		random[i].Family = FamilyRegular
		random[i].N = 12
		random[i].Param = 2
	}
	if groups := sliceGroups(random, order[:4]); len(groups) != 4 {
		t.Fatalf("regular-family replicates grouped as %d groups, want 4 singletons", len(groups))
	}
}

// TestSlicedSweepByteIdentical is the sweep-level acceptance property:
// a 64-replicate quiet grid runs through the batch scheduler as one
// lane group, stores the JSONL records per-scenario Execute stores
// (timing fields aside), and reports every scenario as engine work
// (grouping is an execution detail, not a caching effect).
func TestSlicedSweepByteIdentical(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 64 {
		t.Fatalf("grid expanded to %d scenarios, want 64", len(scs))
	}
	reg := obs.NewRegistry()
	recs, st, err := Run(scs, NewMemStore(), Options{Jobs: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != 64 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want run=64 cached=0 failed=0", st)
	}
	if got := reg.Counter("sweep.batch.groups").Value(); got != 1 {
		t.Fatalf("64 quiet replicates ran as %d groups, want one lane group", got)
	}
	assertExecuteEach(t, scs, recs)
}

// TestSlicedPartialCacheHits: records already in the store drop out of
// a lane group member-by-member; the remainder still runs as lanes and
// lands byte-identical to per-scenario Execute.
func TestSlicedPartialCacheHits(t *testing.T) {
	scs, err := replicateGrid(64).Expand()
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	warm := 0
	for _, sc := range scs {
		if sc.Replicate >= 10 {
			continue
		}
		rec, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
		warm++
	}
	if warm != 10 {
		t.Fatalf("warm subset has %d scenarios, want 10", warm)
	}
	recs, st, err := Run(scs, store, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 10 || st.Ran != 54 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want cached=10 run=54", st)
	}
	assertExecuteEach(t, scs, recs)
}

// TestSlicedMixedEngineGrid: a quiet grid mixing the lane-running TDMA
// engine and one-lane alg1, the default channel and a noiseless model,
// with a replicate count that doesn't fill a word, stores the records
// per-scenario Execute stores.
func TestSlicedMixedEngineGrid(t *testing.T) {
	g := Grid{
		Families:   []string{FamilyGrid},
		Params:     []int{3},
		Epsilons:   []float64{0},
		Noises:     []string{"", "asymmetric:0:0"},
		Engines:    []string{EngineAlg1, EngineTDMA},
		Workloads:  []string{WorkloadGossip},
		Rounds:     2,
		Replicates: 6,
		BaseSeed:   91,
	}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, st, err := Run(scs, NewMemStore(), Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != len(scs) || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("stats: %+v, want run=%d", st, len(scs))
	}
	assertExecuteEach(t, scs, recs)
}

// TestExecuteSlicedValidation: execute runs a lane group only when its
// members differ in nothing but their seeds and fit the engine's lanes.
func TestExecuteSlicedValidation(t *testing.T) {
	base := Scenario{
		Family: FamilyGrid, Param: 2,
		Engine: EngineTDMA, Workload: WorkloadGossip, Rounds: 2,
	}
	if _, err := execute(nil, nil, ExecOptions{}); err == nil {
		t.Error("empty group accepted")
	}
	wide := make([]Scenario, 65)
	for i := range wide {
		wide[i] = base
		wide[i].Replicate, wide[i].AlgSeed = i, uint64(i)
	}
	if _, err := execute(wide, nil, ExecOptions{}); err == nil {
		t.Error("65-lane group accepted")
	}
	a, b := base, base
	b.Epsilon = 0.2
	if _, err := execute([]Scenario{a, b}, nil, ExecOptions{}); err == nil {
		t.Error("group mixing ε accepted")
	}
	c := base
	c.Engine = EngineAlg1
	if _, err := execute([]Scenario{c, c}, nil, ExecOptions{}); err == nil {
		t.Error("two lanes on a one-lane engine accepted")
	}
	// Lanes run only on channels that cannot flip a bit.
	d := base
	d.Epsilon = 0.1
	if _, err := execute([]Scenario{d, d}, nil, ExecOptions{}); err == nil {
		t.Error("noisy group accepted")
	}

	// A well-formed pair matches two lone runs exactly (timing aside).
	a, b = base, base
	a.ChannelSeed, a.AlgSeed = 10, 11
	b.Replicate, b.ChannelSeed, b.AlgSeed = 1, 20, 21
	recs, err := execute([]Scenario{a, b}, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertExecuteEach(t, []Scenario{a, b}, recs)
}

// TestGoldenPR4RecordsViaSlicedBatch routes the pinned golden grid
// (pr4Grid) through the batch scheduler. Every spec in it runs a noisy
// channel, so the grouping rule must leave each one a singleton, and
// the stored records must remain byte-identical to
// testdata/pr4_records.jsonl.
func TestGoldenPR4RecordsViaSlicedBatch(t *testing.T) {
	golden := readGolden(t)
	scs, err := pr4Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(scs))
	for i := range order {
		order[i] = i
	}
	if groups := sliceGroups(scs, order); len(groups) != len(scs) {
		t.Fatalf("noisy golden grid formed %d groups from %d specs, want all singletons", len(groups), len(scs))
	}
	recs, st, err := Run(scs, NewMemStore(), Options{Jobs: 2})
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
	for i, want := range golden {
		rec, err := DecodeRecord(want)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		got, ok := byHash[rec.Hash]
		if !ok {
			t.Fatalf("golden record %s not produced by the batch", rec.Hash)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %s differs from the golden record via the batch:\n got %s\nwant %s", rec.Hash, got, want)
		}
	}
}
