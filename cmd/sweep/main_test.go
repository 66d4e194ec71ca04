package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestFrontierRefusesTelemetryFlags: the frontier search collects no
// telemetry, so -metrics or -telemetry beside -frontier is refused,
// naming the flag, before the store is opened or any scenario runs.
func TestFrontierRefusesTelemetryFlags(t *testing.T) {
	grid := sweep.Grid{
		Families: []string{sweep.FamilyRegular}, Ns: []int{32}, Params: []int{4},
		Noises: []string{"adversary:solo:32768"}, Engines: []string{sweep.EngineAlg1},
		Workloads: []string{sweep.WorkloadLeader}, BaseSeed: 7,
	}
	for flag, cfg := range map[string]cliConfig{
		"-metrics":   {metrics: true},
		"-telemetry": {telemetry: "127.0.0.1:0"},
	} {
		cfg.frontier = true
		cfg.storePath = filepath.Join(t.TempDir(), "frontier.jsonl")
		if err := run(grid, cfg); err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("%s with -frontier: err = %v, want an error naming %s", flag, err, flag)
		}
		if _, err := os.Stat(cfg.storePath); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s with -frontier opened the store before refusing it (stat: %v)", flag, err)
		}
	}
}

// TestStoreRerunAppendsNothing: a -store run reads and appends through
// the indexed engine, so it leaves a .idx sidecar, and a second run of
// the same grid is served from the store without appending a byte.
func TestStoreRerunAppendsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	grid := sweep.Grid{
		Families: []string{sweep.FamilyRegular}, Ns: []int{16}, Params: []int{2},
		Epsilons: []float64{0, 0.1}, Engines: []string{sweep.EngineAlg1, sweep.EngineTDMA},
		Rounds: 2, BaseSeed: 7,
	}
	cfg := cliConfig{storePath: path, jobs: 2, strict: true}
	if err := run(grid, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sweep.IndexPath(path)); err != nil {
		t.Fatalf("no sidecar after a -store run: %v", err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(first, []byte("\n")); n != 4 {
		t.Fatalf("the first run stored %d records, want 4", n)
	}
	if err := run(grid, cfg); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("the re-run changed the store: %d bytes, then %d", len(first), len(second))
	}
}
