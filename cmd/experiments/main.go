// Command experiments regenerates every table and figure of the
// reproduction (DESIGN.md §3) and prints them as aligned text.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only T4,T9] [-workers W] [-json FILE]
//	            [-metrics] [-telemetry ADDR]
//
// T3, T4, T6, T8, T9, T11 and A4 are views over sweep records; T5, T7,
// T10 and A1–A3, which a sweep scenario cannot express, build their
// Algorithm 1 runner through one helper.
//
// -workers parallelizes the simulators' per-round phases (0 = one worker
// per CPU, 1 = serial); every table is bit-identical for every setting.
// -json additionally emits each table as one JSONL line ("-" = stdout),
// in the same framing the sweep result store uses. -metrics collects the
// deterministic telemetry registry across the suite, which every table
// that runs an engine reports into, and prints it as a table on stderr;
// -telemetry ADDR serves it live over HTTP alongside suite progress (one
// unit per experiment). Telemetry is observation-only — every table is
// byte-identical with it on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "run reduced-size experiments")
		seed      = flag.Uint64("seed", 2023, "experiment seed")
		only      = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		workers   = flag.Int("workers", 0, "simulation workers: 0 = one per CPU, 1 = serial")
		jsonPath  = flag.String("json", "", "also emit tables as JSONL to this file (\"-\" = stdout)")
		metrics   = flag.Bool("metrics", false, "collect telemetry and print a metrics table to stderr")
		telemetry = flag.String("telemetry", "", "serve live introspection (metrics, progress, pprof) on ADDR; implies -metrics collection")
	)
	flag.Parse()
	if err := run(*quick, *seed, *only, *workers, *jsonPath, *metrics, *telemetry); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// jsonTable is the machine-readable rendering of one experiment: the
// table plus run metadata, one JSONL line per experiment.
type jsonTable struct {
	*experiments.Table
	Seed     uint64 `json:"seed"`
	Quick    bool   `json:"quick"`
	ElapsedM int64  `json:"elapsed_ms"`
}

func run(quick bool, seed uint64, only string, workers int, jsonPath string, metrics bool, telemetry string) error {
	cfg := experiments.Config{Quick: quick, Seed: seed, Workers: workers}
	if metrics || telemetry != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	known := make(map[string]bool)
	var ids []string
	for _, e := range experiments.All() {
		known[e.ID] = true
		ids = append(ids, e.ID)
	}
	selected := make(map[string]bool)
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		id = strings.ToUpper(id)
		if !known[id] {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}
	var jsonOut io.Writer
	if jsonPath == "-" {
		jsonOut = os.Stdout
	} else if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonOut = f
	}
	total := 0
	for _, e := range experiments.All() {
		if len(selected) == 0 || selected[e.ID] {
			total++
		}
	}
	var done atomic.Int64
	suiteStart := time.Now()
	if telemetry != "" {
		// Every finished experiment ran: none is cached, and a failure ends the run.
		srv, err := obs.Serve(telemetry, cfg.Metrics, func() any {
			n := done.Load()
			return map[string]int64{"total": int64(total), "done": n, "cached": 0, "ran": n, "failed": 0,
				"elapsed_ms": time.Since(suiteStart).Milliseconds()}
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: telemetry listening on http://%s\n", srv.Addr())
	}
	for _, e := range experiments.All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		start := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		done.Add(1)
		elapsed := time.Since(start)
		fmt.Print(tbl.Render())
		fmt.Printf("(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		if jsonOut != nil {
			rec := jsonTable{Table: tbl, Seed: seed, Quick: quick, ElapsedM: elapsed.Milliseconds()}
			if err := sweep.EncodeJSONL(jsonOut, rec); err != nil {
				return err
			}
		}
	}
	if cfg.Metrics != nil {
		fmt.Fprintln(os.Stderr, "experiments: metrics:")
		if err := obs.WriteSummary(os.Stderr, cfg.Metrics); err != nil {
			return err
		}
	}
	return nil
}
