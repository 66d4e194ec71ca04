package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
)

// TestCacheSharesTablesAcrossThresholds: Params that differ only in
// channel or solo filter are separate code entries (their thresholds
// differ) but hash their beep and distance codes once; a Params with
// another TableKey hashes its own.
func TestCacheSharesTablesAcrossThresholds(t *testing.T) {
	c := NewCache()
	p := core.DefaultParams(16, 3, 8, 0.1)
	noisy := p
	noisy.Channel = noise.Adversary{Strategy: noise.StrategySolo, Budget: 64}
	naive := p
	naive.DisableSoloFilter = true
	wider := p
	wider.R++
	seen := map[*core.Codes]bool{}
	for _, q := range []core.Params{p, noisy, naive, wider, noisy} {
		codes, err := c.Codes(q)
		if err != nil {
			t.Fatal(err)
		}
		seen[codes] = true
	}
	if len(seen) != 4 {
		t.Fatalf("%d distinct code entries for 4 distinct Params", len(seen))
	}
	if st := c.Stats(); st.CodeMisses != 4 || st.CodeHits != 1 {
		t.Fatalf("stats = %+v, want 4 misses / 1 hit", st)
	}
	if got := c.tables.misses.Load(); got != 2 {
		t.Fatalf("hashed %d table sets, want 2 (one per TableKey)", got)
	}
}
