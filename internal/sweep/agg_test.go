package sweep

import (
	"bytes"
	"encoding/json"
	"iter"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestDistOf(t *testing.T) {
	d := DistOf([]float64{3, 1, 2, 4})
	if d.Count != 4 || d.Min != 1 || d.Max != 4 || d.Mean != 2.5 {
		t.Fatalf("DistOf: %+v", d)
	}
	if d.P50 != 2.5 {
		t.Errorf("P50 = %v, want 2.5", d.P50)
	}
	if math.Abs(d.P90-3.7) > 1e-9 {
		t.Errorf("P90 = %v, want 3.7", d.P90)
	}
	if z := DistOf(nil); z != (Dist{}) {
		t.Errorf("DistOf(nil) = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30}
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.5, 20}, {1, 30}, {0.25, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
}

// TestAggregateReplicates: records differing only in replicate fall into
// one cell with correct replicate statistics; different engines stay in
// different cells; presentation order is deterministic.
func TestAggregateReplicates(t *testing.T) {
	mk := func(engine string, rep int, beepRounds int) Record {
		sc := baseSpec()
		sc.Engine = engine
		sc.Replicate = rep
		sc.ChannelSeed += uint64(rep)
		return Record{
			Hash: sc.Hash(), Spec: sc,
			Graph:    GraphInfo{N: sc.N + rep, MaxDegree: 2, Edges: sc.N},
			Counters: Counters{Result: core.Result{SimRounds: 2, BeepRounds: beepRounds, AllDone: true}},
		}
	}
	recs := []Record{
		mk(EngineTDMA, 0, 100),
		mk(EngineAlg1, 1, 3000),
		mk(EngineAlg1, 0, 1000),
		mk(EngineAlg1, 2, 2000),
	}
	groups := Aggregate(slices.Values(recs))
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// Deterministic order: alg1 before tdma.
	if groups[0].Key.Engine != EngineAlg1 || groups[1].Key.Engine != EngineTDMA {
		t.Fatalf("group order: %+v", []Key{groups[0].Key, groups[1].Key})
	}
	a := groups[0]
	if a.BeepRounds.Count != 3 || a.BeepRounds.Mean != 2000 || a.BeepRounds.Min != 1000 || a.BeepRounds.Max != 3000 {
		t.Errorf("alg1 beep-round distribution: %+v", a.BeepRounds)
	}
	if a.PerSimRound.Mean != 1000 {
		t.Errorf("per-sim-round mean: %+v", a.PerSimRound)
	}
	// The realized size is the lowest replicate's, wherever it arrives.
	if want := baseSpec().N; a.GraphN != want {
		t.Errorf("cell GraphN = %d, want replicate 0's %d", a.GraphN, want)
	}
}

// TestAggregateGolden pins Aggregate's output over the golden store
// testdata/pr4_records.jsonl byte for byte: testdata/golden_aggregate.json
// is the JSON GET /aggregate serves over that store. Scan order must not
// matter, so both engines' scans and a reversed order give those bytes.
func TestAggregateGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_aggregate.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := goldenStorePath(t)
	mem := memStoreOf(t, readPlain(t, path))
	for name, open := range map[string]func(string) (StoreEngine, error){
		"store":   func(string) (StoreEngine, error) { return mem, nil },
		"indexed": func(p string) (StoreEngine, error) { return OpenIndexed(p) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			recs := slices.Collect(s.All())
			slices.Reverse(recs)
			for order, scan := range map[string]iter.Seq[Record]{"first-seen": s.All(), "reversed": slices.Values(recs)} {
				got, err := json.Marshal(Aggregate(scan))
				if err != nil {
					t.Fatal(err)
				}
				if got = append(got, '\n'); !bytes.Equal(got, want) {
					t.Fatalf("%s scan: aggregate differs from testdata/golden_aggregate.json:\n got: %s\nwant: %s", order, got, want)
				}
			}
		})
	}
}
