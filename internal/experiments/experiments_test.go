package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// pinnedTables holds the SHA-256 of every table's Render() at
// quickCfg(). How a table reaches its engine (runSweep or newRunner) is
// an implementation choice; what it prints is not, so a change that
// moves one byte of a table must say so by updating its digest here.
var pinnedTables = map[string]string{
	"T0":  "b05e87a713b7519444ac802e3cbd572abb9a8e69ee0fef803f431802fe80b6b0",
	"T1":  "43c8188bc50e31e8f95b16a60796ea606eab890bc34a1ae40906ac6f1ff020c7",
	"T2":  "36e347361448db198b27c54c0c720dbefa8a5945995920f686277b3a195ce41b",
	"T3":  "5e393246583dcf5d5cd87df6bc93e7adedad370070e11423e5ded70074b46827",
	"T4":  "4246e98b3e2ad6f43c8003dada20a3d478e30c7f4f3d7948dc3b5934ef832006",
	"T5":  "bf31eb5b1d9da36c0d18abe775f21caf68fda8f42d94d0e5a894c9984f87dfb5",
	"T6":  "ede90b45d1f50a14cb4e860ef0d7097d38c3d2fafaa3b6d687390ec71121e9eb",
	"T7":  "cdda26d1cb160fc56150f42f9985dcc889e6661cd3f0e0072d15d84306f34aa2",
	"T8":  "833988c253aebb4095ecde7a4c303bdb99fa4d33aca3537c1a824ff2c41521a5",
	"T9":  "0c52061d4af4d1da5ef7d64bb10304590c6fe663e76eb55216a190a1f527b200",
	"T10": "c7d4b5f4b2d853647c2023f0ce49813468614d9cec9ee92eb9f2f3be41e8cf51",
	"T11": "310ad6104b2101bdbed970581f87f99a3ae2d49f34b1a1054a6aa14c6b5b1649",
	"F1":  "747c123c8e967c5c15ec302edd73ee1eca28646a658df12c6bf3da1dd8722f8d",
	"A1":  "cc75d1eb56aed87a8cb9d8e556c4025f11bc76f113e388b2d351822ea6485a80",
	"A2":  "d95bc9bd74a48c7c313e21b940e2a0fc3d7ca51797578199fd3ce90c76d6ac57",
	"A3":  "46bb380c4c0f458e83bc2a1529b1cd555711f2e8df08617946463ca9e417cd1e",
	"A4":  "a346bca8cd004832aad5d5b232d18ae9fd51aece4cf9d9fed2c8bd764ee9f75e",
}

// TestTablesPinned renders every table at quickCfg() and compares its
// digest with pinnedTables, once at the default width without telemetry
// and once serial with a registry: neither knob may change a table.
func TestTablesPinned(t *testing.T) {
	serial := quickCfg()
	serial.Workers = 1
	serial.Metrics = obs.NewRegistry()
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{{"default", quickCfg()}, {"serial-metrics", serial}} {
		for _, e := range All() {
			tbl, err := e.Run(cfg.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.name, e.ID, err)
			}
			sum := sha256.Sum256([]byte(tbl.Render()))
			if got := hex.EncodeToString(sum[:]); got != pinnedTables[e.ID] {
				t.Errorf("%s %s: render digest %s, pinned %s\n%s", cfg.name, e.ID, got, pinnedTables[e.ID], tbl.Render())
			}
		}
	}
}

// TestEngineTablesReportTelemetry checks that every table that runs an
// engine — all but the code-construction tables T0–T2 and F1 — threads
// Config.Metrics down to it: each leaves a non-empty registry, as
// README's -metrics promises for the whole suite.
func TestEngineTablesReportTelemetry(t *testing.T) {
	codesOnly := map[string]bool{"T0": true, "T1": true, "T2": true, "F1": true}
	for _, e := range All() {
		if codesOnly[e.ID] {
			continue
		}
		cfg := quickCfg()
		cfg.Metrics = obs.NewRegistry()
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(cfg.Metrics.Snapshot()) == 0 {
			t.Errorf("%s runs an engine but left the metrics registry empty", e.ID)
		}
	}
}

// TestAllExperimentsRun smoke-tests every experiment at Quick size:
// non-empty tables, consistent column counts, renderable.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Error("no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("row %d has %d cells for %d columns", i, len(row), len(tbl.Columns))
				}
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.Title) || !strings.Contains(out, "Paper claim:") {
				t.Error("render missing header")
			}
		})
	}
}

func cell(t *testing.T, tbl *Table, row int, col string) string {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == col {
			return tbl.Rows[row][i]
		}
	}
	t.Fatalf("column %q not found in %v", col, tbl.Columns)
	return ""
}

func parseRate(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestT1CodesAreGood asserts the substance of T1: bad fractions small.
func TestT1CodesAreGood(t *testing.T) {
	tbl, err := T1BeepCodeProperty(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if r := parseRate(t, cell(t, tbl, i, "bad frac (random)")); r > 0.1 {
			t.Errorf("row %d: random code bad fraction %v", i, r)
		}
		if r := parseRate(t, cell(t, tbl, i, "bad frac (blocked)")); r > 0.1 {
			t.Errorf("row %d: blocked code bad fraction %v", i, r)
		}
	}
}

// TestT2DistanceSatisfied asserts Lemma 6 holds in every tested row.
func TestT2DistanceSatisfied(t *testing.T) {
	tbl, err := T2DistanceCodeProperty(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if got := cell(t, tbl, i, "satisfied"); got != "true" {
			t.Errorf("row %d: min distance below δb", i)
		}
	}
}

// TestT3T4ErrorRatesLow asserts the decoding error rates stay near zero
// across the noise sweep.
func TestT3T4ErrorRatesLow(t *testing.T) {
	t3, err := T3Phase1Membership(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range t3.Rows {
		if r := parseRate(t, cell(t, t3, i, "membership err rate")); r > 0.05 {
			t.Errorf("T3 row %d: membership error rate %v", i, r)
		}
	}
	t4, err := T4BroadcastOverhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range t4.Rows {
		if r := parseRate(t, cell(t, t4, i, "msg err rate")); r > 0.05 {
			t.Errorf("T4 row %d: message error rate %v", i, r)
		}
	}
}

// TestT6BaselineGapGrows asserts the headline comparison shape: the
// baseline/ours ratio grows with Δ on the χ(G²)=Θ(Δ²) instances (the
// crossover sits at small Δ where constants dominate).
func TestT6BaselineGapGrows(t *testing.T) {
	tbl, err := T6BaselineComparison(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The PG(2,q) rows come first, in increasing q.
	first := parseRate(t, cell(t, tbl, 0, "ratio"))
	second := parseRate(t, cell(t, tbl, 1, "ratio"))
	if second <= first {
		t.Errorf("ratio did not grow with Δ: %v then %v", first, second)
	}
}

// TestT7T9Correct asserts the end-to-end pipelines produced correct
// outputs.
func TestT7T9Correct(t *testing.T) {
	t7, err := T7LocalBroadcast(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range t7.Rows {
		if got := cell(t, t7, i, "correct"); got != "true" {
			t.Errorf("T7 row %d incorrect", i)
		}
	}
	t9, err := T9MatchingBeeps(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range t9.Rows {
		if got := cell(t, t9, i, "valid"); got != "true" {
			t.Errorf("T9 row %d invalid", i)
		}
	}
}

// TestA1ThresholdShape asserts the ablation shows the expected threshold:
// the smallest repetition factor fails, the largest succeeds.
func TestA1ThresholdShape(t *testing.T) {
	tbl, err := A1RepetitionAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := parseRate(t, cell(t, tbl, 0, "message err rate"))
	last := parseRate(t, cell(t, tbl, len(tbl.Rows)-1, "message err rate"))
	if first <= last {
		t.Errorf("expected errors to fall with R: first %v, last %v", first, last)
	}
	if last > 0.02 {
		t.Errorf("largest R still failing: %v", last)
	}
}

// TestA2CollisionShape asserts collisions fall as the codebook grows and
// vanish under by-ID assignment.
func TestA2CollisionShape(t *testing.T) {
	tbl, err := A2CodebookAblation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	smallM := parseRate(t, cell(t, tbl, 0, "membership err rate"))
	byID := parseRate(t, cell(t, tbl, len(tbl.Rows)-1, "membership err rate"))
	if smallM <= byID {
		t.Errorf("expected small-M membership errors (%v) to exceed by-ID (%v)", smallM, byID)
	}
	if byID != 0 {
		t.Errorf("by-ID assignment shows membership errors: %v", byID)
	}
}

func TestF1Rendering(t *testing.T) {
	tbl, err := F1CombinedCode(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Notes, "\n")
	for _, want := range []string{"C(r)", "D(m)", "CD(r,m)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("figure rendering missing %q", want)
		}
	}
}
