package sweep

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTelemetryRecordsIdentical is the tentpole determinism guarantee:
// running a pinned grid through the batch scheduler with a live metrics
// registry produces records byte-identical to the golden file written
// with no telemetry at all. Instrumentation observes — it never consumes
// randomness or branches on channel data. pr4Grid covers the simulated
// engines; nativeBeepGrid covers the sparse wave broadcast and the
// native MIS, whose channel counters reach the registry through
// sim.NativeBeeper.
func TestTelemetryRecordsIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		grid   Grid
		// observed are metrics the run must have moved.
		observed []string
	}{
		{"pr4", "pr4_records.jsonl", pr4Grid(), []string{
			"core.rounds.sim", "tdma.rounds.sim", "sweep.exec.run_nanos",
			"sweep.store.misses", "sim.cache.graph_hits", "noise.flips.symmetric",
		}},
		{"native-beep", "native_beep_records.jsonl", nativeBeepGrid(), []string{
			"beep.rounds", "beep.beeps", "beep.frontier.peak", "pool.do", "sweep.exec.run_nanos",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := readGoldenFile(t, tc.golden)
			scs, err := tc.grid.Expand()
			if err != nil {
				t.Fatal(err)
			}
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

			// The registry must actually have observed the run.
			seen := make(map[string]bool)
			for _, m := range reg.Snapshot() {
				if m.Value > 0 || m.Count > 0 {
					seen[m.Name] = true
				}
			}
			for _, name := range tc.observed {
				if !seen[name] {
					t.Errorf("metric %q not observed during the telemetry-on run", name)
				}
			}
		})
	}
}

// TestTelemetryAdversaryRecordsIdentical extends the PR 7 invariant to
// budget accounting: an adversarial scenario executes byte-identically
// with the noise.adversary.spent counter live or absent, on both the
// native (alg1) and baseline (tdma) paths, and the counter observed
// real spending — the Counting wrap counts, it never gates.
func TestTelemetryAdversaryRecordsIdentical(t *testing.T) {
	for _, eng := range []string{EngineAlg1, EngineTDMA} {
		sc := advLeader("64")
		sc.Engine = eng
		off, err := Execute(sc, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		on, err := Execute(sc, ExecOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeZeroed(t, on), encodeZeroed(t, off); !bytes.Equal(got, want) {
			t.Errorf("%s: telemetry-on record differs:\n got %s\nwant %s", eng, got, want)
		}
		if spent := reg.Counter("noise.adversary.spent").Value(); spent <= 0 {
			t.Errorf("%s: noise.adversary.spent = %d, want > 0", eng, spent)
		}
	}
}

// TestBatchDoneMonotonic: the event log yields Done counting 1..Total
// in landing order, under concurrency.
func TestBatchDoneMonotonic(t *testing.T) {
	scs, err := tinyGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	events, _, _, err := runEvents(t, scs, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(scs) {
		t.Fatalf("got %d events for %d scenarios", len(events), len(scs))
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d has Done=%d, want %d (monotonic completion count)", i, ev.Done, i+1)
		}
	}
}

// TestBatchDuplicateFailureEvents pins the dup/error interaction: a
// duplicated failing spec fails every slot, and no slot is reported
// Cached — an in-batch duplicate of a failure did not save engine work
// in any meaningful sense and must not masquerade as a cache hit.
func TestBatchDuplicateFailureEvents(t *testing.T) {
	bad := baseSpec()
	bad.Family = "no-such-family"
	good := baseSpec()
	evs, recs, st, err := runEvents(t, []Scenario{bad, good, bad}, Options{Jobs: 1})
	events := make(map[int]Event)
	for _, ev := range evs {
		events[ev.Index] = ev
	}
	if err == nil {
		t.Fatal("expected an error for the invalid scenario")
	}
	if st.Failed != 2 || st.Ran != 1 || st.Cached != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for _, i := range []int{0, 2} {
		ev, ok := events[i]
		if !ok {
			t.Fatalf("no event for failing slot %d", i)
		}
		if ev.Err == nil {
			t.Errorf("slot %d event has no error", i)
		}
		if ev.Cached {
			t.Errorf("slot %d (duplicate failure) reported Cached", i)
		}
		if recs[i].Hash != "" {
			t.Errorf("failing slot %d has a record", i)
		}
	}
	if ev := events[1]; ev.Err != nil || ev.Cached {
		t.Errorf("good scenario event: %+v", ev)
	}
	// A duplicated *successful* spec still reports its copies cached.
	dupEv, _, st2, err := runEvents(t, []Scenario{good, good}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ran != 1 || st2.Cached != 1 {
		t.Fatalf("dup-success stats: %+v", st2)
	}
	cachedCount := 0
	for _, ev := range dupEv {
		if ev.Cached {
			cachedCount++
		}
	}
	if cachedCount != 1 {
		t.Fatalf("want exactly one Cached event for the duplicate slot, got %d", cachedCount)
	}
}

// TestBatchMetricsCounts: the batch scheduler's own counters reflect
// dedup, store traffic, and group shapes.
func TestBatchMetricsCounts(t *testing.T) {
	sc := baseSpec()
	reg := obs.NewRegistry()
	_, st, err := Run([]Scenario{sc, sc, sc}, NewMemStore(), Options{Jobs: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Unique != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := reg.Counter("sweep.batch.dups").Value(); got != 2 {
		t.Errorf("sweep.batch.dups = %d, want 2", got)
	}
	if got := reg.Counter("sweep.store.misses").Value(); got != 1 {
		t.Errorf("sweep.store.misses = %d, want 1", got)
	}
	if got := reg.Counter("sweep.service.store_hits").Value(); got != 0 {
		t.Errorf("sweep.service.store_hits = %d, want 0", got)
	}
	if got := reg.Counter("sweep.batch.groups").Value(); got != 1 {
		t.Errorf("sweep.batch.groups = %d, want 1", got)
	}

	// Second run against a warm store: the unique spec is a store hit.
	store := NewMemStore()
	if _, _, err := Run([]Scenario{sc}, store, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	if _, _, err := Run([]Scenario{sc}, store, Options{Jobs: 1, Metrics: reg2}); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("sweep.service.store_hits").Value(); got != 1 {
		t.Errorf("warm-store sweep.service.store_hits = %d, want 1", got)
	}
	if got := reg2.Counter("sweep.store.misses").Value(); got != 0 {
		t.Errorf("warm-store sweep.store.misses = %d, want 0", got)
	}
}

// TestSummaryRendersStatsAndCache: the CLI end-of-run line carries both
// the batch stats and the artifact-cache counters.
func TestSummaryRendersStatsAndCache(t *testing.T) {
	st := Stats{Total: 8, Unique: 7, Cached: 3, Ran: 4, Failed: 1, Wall: 1500 * time.Millisecond}
	cs := sim.CacheStats{GraphHits: 5, GraphMisses: 2, CodeHits: 1, CodeMisses: 1}
	got := Summary(st, cs)
	for _, want := range []string{"total=8", "cached=3", "run=4", "failed=1", "graphs 5/2", "codes 1/1"} {
		if !strings.Contains(got, want) {
			t.Errorf("Summary %q missing %q", got, want)
		}
	}
}
