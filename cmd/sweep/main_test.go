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
		if err := run(grid, cfg); err == nil || !strings.Contains(err.Error(), flag) || !onePrefix(err) {
			t.Fatalf("%s with -frontier: err = %v, want an error naming %s after one \"sweep: \"", flag, err, flag)
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

// TestApplicationGridsVerify runs README's application grids through run
// under -strict, each as its command line spells it (the -seed default
// included): every record finishes with its output verified, and each
// grid stores the number of records README names.
func TestApplicationGridsVerify(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grid    sweep.Grid
		records int
	}{
		{"quickstart gossip round", sweep.Grid{
			Families: []string{sweep.FamilyRegular}, Ns: []int{6}, Params: []int{2},
			Epsilons: []float64{0.1}, Engines: []string{sweep.EngineAlg1},
			Workloads: []string{sweep.WorkloadGossip}, Rounds: 1,
		}, 1},
		{"maximal matching", sweep.Grid{
			Families: []string{sweep.FamilyRegular}, Ns: []int{48}, Params: []int{6},
			Epsilons: []float64{0.1}, Engines: []string{sweep.EngineAlg1},
			Workloads: []string{sweep.WorkloadMatching},
		}, 1},
		{"mis three ways", sweep.Grid{
			Families: []string{sweep.FamilyBounded}, Ns: []int{40}, Params: []int{6},
			Epsilons:  []float64{0, 0.15},
			Engines:   []string{sweep.EngineCongest, sweep.EngineAlg1, sweep.EngineBeep},
			Workloads: []string{sweep.WorkloadMIS},
		}, 4},
		{"sensor field", sweep.Grid{
			Families: []string{sweep.FamilyGeo}, Ns: []int{49},
			Epsilons: []float64{0.1}, Engines: []string{sweep.EngineBeep, sweep.EngineAlg1},
			Workloads: []string{sweep.WorkloadBroadcast, sweep.WorkloadBFSTree},
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.grid.BaseSeed = 2023
			path := filepath.Join(t.TempDir(), "app.jsonl")
			if err := run(tc.grid, cliConfig{storePath: path, strict: true}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte("\n")); n != tc.records {
				t.Fatalf("stored %d records, want %d", n, tc.records)
			}
		})
	}
}

// TestVerboseNamesFailedSlot: -v names a failed slot by its spec hash
// and spec, as it names every other slot. The hard family needs 2Δ <= n,
// so its n = 4 point fails to build.
func TestVerboseNamesFailedSlot(t *testing.T) {
	grid := sweep.Grid{
		Families: []string{sweep.FamilyHard, sweep.FamilyRegular}, Ns: []int{4, 8}, Params: []int{3},
		Epsilons: []float64{0}, Engines: []string{sweep.EngineTDMA},
		Workloads: []string{sweep.WorkloadGossip}, Rounds: 1, BaseSeed: 2023,
	}
	scenarios, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run(grid, cliConfig{jobs: 1, verbose: true})
	os.Stderr = saved
	if err == nil {
		t.Fatal("the n = 4 hard instance did not fail")
	}
	out, rerr := os.ReadFile(stderr.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	var failed []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, ": FAILED: ") {
			failed = append(failed, line)
		}
	}
	want := scenarios[0].Hash() + " gossip/tdma/hard n=4 param=3 "
	if len(failed) != 1 || !strings.Contains(failed[0], want) {
		t.Fatalf("failed lines %q, want one naming %q\nstderr:\n%s", failed, want, out)
	}
}

// TestErrorsCarryOnePrefix: fatal prints run's error as it is, so an
// error internal/sweep made (a misspelled workload) must reach it with
// exactly one "sweep: "; TestFrontierRefusesTelemetryFlags checks the
// CLI's own refusals the same way.
func TestErrorsCarryOnePrefix(t *testing.T) {
	grid := sweep.Grid{
		Families: []string{sweep.FamilyRegular}, Ns: []int{16}, Params: []int{2},
		Engines: []string{sweep.EngineAlg1}, Workloads: []string{"matchng"}, BaseSeed: 7,
	}
	if err := run(grid, cliConfig{}); err == nil || !onePrefix(err) {
		t.Fatalf("misspelled workload: err = %v, want an error after one \"sweep: \"", err)
	}
}

func onePrefix(err error) bool {
	msg := err.Error()
	return strings.HasPrefix(msg, "sweep: ") && !strings.HasPrefix(msg, "sweep: sweep:")
}
