// Command sweep expands a declarative scenario grid (graph family × n ×
// Δ × ε × engine × workload × replicates), runs it through the batch
// scheduler with content-addressed caching, and prints an aggregate
// table. Engines and workloads come from the internal/sim registries —
// every registered workload (gossip, mis, coloring, leader, matching,
// bfstree, broadcast) runs on every compatible engine, and a name no
// registry holds is refused. Results persist as JSONL (one record per
// scenario, keyed by the spec's content hash, with a .idx offset
// sidecar rewritten on exit), so re-running an overlapping grid — or
// resuming after an interrupt — skips every scenario already in the
// store; within one batch, graphs and code tables are built once and
// shared across scenarios.
//
// Usage:
//
//	sweep -family regular,pg -n 32,64 -delta 4,8 -eps 0,0.1 \
//	      -engine alg1,tdma -workload gossip,coloring -rounds 3 \
//	      -replicates 3 -seed 2023 -store results.jsonl -jobs 0 -v
//
// One scenario is a grid of one point, and its record carries every
// counter of the run (rounds, beeps, decode errors, all_done,
// output_ok). The million-node native broadcast, for example, builds
// its graph on every CPU, as -workers 0 (the width of each scenario's
// engine pool and graph build) gives a lone scenario the whole machine:
//
//	sweep -family geo -n 1000000 -eps 0 -engine beep \
//	      -workload broadcast -strict
//
// The channel is an axis too: -noise lists channel models (specs are
// colon-separated so they compose with the comma-separated axis), e.g.
//
//	sweep -family regular -n 64 -delta 4 \
//	      -noise symmetric,gilbert-elliott:0.01:0.3:0.05:0.25 -eps 0.05 \
//	      -engine alg1,tdma -workload gossip -replicates 4
//
// compares the i.i.d. symmetric channel at ε = 0.05 against burst noise
// with the matching stationary rate. Non-symmetric models own their
// parameters, so the ε axis collapses under them (and under the native
// engines); Expand deduplicates the collapsed grid points.
//
// Hostile channels ride the same axis: adversary:strategy:budget[:args]
// (strategies random, solo, phase, hub) and jam:duty:period. With
// -frontier the budget becomes a search axis instead of a grid point:
// each expanded scenario's budget is the ceiling, and the minimal
// budget that breaks the protocol is found by bisection
// (sweep.FrontierSearch), every probe an ordinary content-hashed
// scenario served through the store — a warm store resumes the search
// with zero re-simulation. Example:
//
//	sweep -frontier -family regular -n 32 -delta 4 \
//	      -noise adversary:solo:32768 -engine alg1,tdma \
//	      -workload leader -store frontier.jsonl
//
// prints a per-protocol frontier table (breaking budget -1 = unbroken
// up to the ceiling). -strict exits non-zero when any record carries a
// failure or failed output verification, so CI grids fail loudly
// instead of via grep.
//
// The final stderr line reports cache effectiveness — batch stats plus
// the artifact cache's hit/miss counters, e.g.
// "sweep: total=48 cached=48 run=0 failed=0 wall=12ms artifacts[graphs
// 2/2 codes 0/1 (hits/misses)]" — a second run of the same grid performs
// zero engine work. The grid runs as one sweep.Service job, the run's
// one record of progress: -v prints each slot from the job's log as it
// lands, naming its hash and spec even when it failed.
//
// Telemetry: -metrics collects the deterministic instrumentation
// registry (phase timers, decode counters, noise-flip accounting, pool
// and cache traffic) and prints it as a table on stderr; with -store it
// also writes a one-line JSONL telemetry artifact, re-created each run,
// beside the result store (<store>.telemetry.jsonl), whose meta carries
// the job's status. -telemetry ADDR additionally serves live
// introspection over HTTP (/metrics, /progress with the job's status,
// /debug/vars, /debug/pprof/) for the duration of the run. Both are
// observation-only: records are byte-identical with telemetry on or
// off. -frontier refuses both.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	var (
		families   = flag.String("family", "regular", "comma-separated graph families (regular, bounded, pg, grid, hypercube, hard, complete, geo)")
		ns         = flag.String("n", "64", "comma-separated node counts (ignored by families that derive n)")
		deltas     = flag.String("delta", "4", "comma-separated family parameters (Δ; q for pg, side for grid, dim for hypercube)")
		epss       = flag.String("eps", "0.05", "comma-separated channel noise rates (symmetric channel)")
		noises     = flag.String("noise", "", "comma-separated channel-noise models ("+strings.Join(noise.Names(), ", ")+"); empty/symmetric uses -eps, e.g. asymmetric:p01:p10, erasure:q:readAs, gilbert-elliott:pGood:pBad:pGB:pBG, adversary:strategy:budget[:args], jam:duty:period")
		engines    = flag.String("engine", "alg1", "comma-separated engines ("+strings.Join(sim.EngineNames(), ", ")+")")
		workloads  = flag.String("workload", "gossip", "comma-separated workloads ("+strings.Join(sim.WorkloadNames(), ", ")+")")
		rounds     = flag.Int("rounds", 3, "gossip rounds per scenario")
		msgBits    = flag.Int("msgbits", 0, "CONGEST bandwidth override (0 = workload default)")
		replicates = flag.Int("replicates", 1, "seed replicates per grid point")
		seed       = flag.Uint64("seed", 2023, "base seed (every scenario seed derives from it)")
		storePath  = flag.String("store", "", "JSONL result store path (empty = in-memory, no caching across runs)")
		jobs       = flag.Int("jobs", 0, "concurrent scenarios (0 = one per CPU)")
		workers    = flag.Int("workers", 0, "per-scenario engine and graph-generation workers (0 = auto: serial when jobs > 1)")
		noAgg      = flag.Bool("noagg", false, "skip the aggregate table")
		verbose    = flag.Bool("v", false, "stream per-scenario progress to stderr")
		metrics    = flag.Bool("metrics", false, "collect telemetry and print a metrics table to stderr (with -store, also write <store>.telemetry.jsonl)")
		telemetry  = flag.String("telemetry", "", "serve live introspection (metrics, progress, pprof) on ADDR for the run's duration; implies -metrics collection")
		frontier   = flag.Bool("frontier", false, "resilience-frontier mode: treat each scenario's adversary budget as a ceiling and bisect for the minimal breaking budget")
		compact    = flag.Bool("compact", false, "compact the -store file (drop torn/duplicate/invalid lines, rebuild the sidecar index), print what was reclaimed, and exit")
		strict     = flag.Bool("strict", false, "exit non-zero when any record has a failure or output_ok=false")
	)
	flag.Parse()

	if *compact {
		if *storePath == "" {
			fatal(errors.New("sweep: -compact needs -store"))
		}
		cs, err := sweep.Compact(*storePath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sweep: compacted %s: dropped %d line(s) (%d invalid, %d duplicate), reclaimed %d bytes (%d -> %d), index %s\n",
			*storePath, cs.DroppedInvalid+cs.DroppedDuplicate, cs.DroppedInvalid, cs.DroppedDuplicate,
			cs.Reclaimed, cs.BytesIn, cs.BytesOut, sweep.IndexPath(*storePath))
		return
	}

	grid := sweep.Grid{
		Families:   splitList(*families),
		Engines:    splitList(*engines),
		Workloads:  splitList(*workloads),
		Noises:     splitList(*noises),
		Rounds:     *rounds,
		MsgBits:    *msgBits,
		Replicates: *replicates,
		BaseSeed:   *seed,
	}
	var err error
	if grid.Ns, err = splitInts(*ns); err != nil {
		fatal(err)
	}
	if grid.Params, err = splitInts(*deltas); err != nil {
		fatal(err)
	}
	if grid.Epsilons, err = splitFloats(*epss); err != nil {
		fatal(err)
	}

	cfg := cliConfig{
		storePath: *storePath,
		jobs:      *jobs, workers: *workers,
		agg: !*noAgg, verbose: *verbose, metrics: *metrics,
		telemetry: *telemetry,
		frontier:  *frontier, strict: *strict,
	}
	if err := run(grid, cfg); err != nil {
		fatal(err)
	}
}

// cliConfig carries the non-grid flags (everything that is not a
// scenario axis) through the run.
type cliConfig struct {
	storePath             string
	jobs, workers         int
	agg, verbose, metrics bool
	telemetry             string
	frontier, strict      bool
}

// telemetryPath is the JSONL telemetry artifact written beside the
// result store: results.jsonl -> results.telemetry.jsonl.
func telemetryPath(storePath string) string {
	return strings.TrimSuffix(storePath, ".jsonl") + ".telemetry.jsonl"
}

func run(grid sweep.Grid, cfg cliConfig) (err error) {
	// The frontier search collects no telemetry and serves no progress.
	if cfg.frontier && cfg.metrics {
		return errors.New("sweep: -metrics does not apply to -frontier")
	}
	if cfg.frontier && cfg.telemetry != "" {
		return errors.New("sweep: -telemetry does not apply to -frontier")
	}
	scenarios, err := grid.Expand()
	if err != nil {
		return err
	}

	var store sweep.StoreEngine = sweep.NewMemStore()
	if cfg.storePath != "" {
		var disk *sweep.IndexedStore
		if disk, err = sweep.OpenIndexed(cfg.storePath); err != nil {
			return err
		}
		// Close rewrites the .idx sidecar to cover this run's appends.
		defer func() {
			if cerr := disk.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("sweep: close store: %w", cerr))
			}
		}()
		if d := disk.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "sweep: store %s: dropped %d invalid line(s)\n", cfg.storePath, d)
		}
		store = disk
	}

	if cfg.frontier {
		return runFrontier(scenarios, store, cfg)
	}

	artifacts := sim.NewCache()
	var reg *obs.Registry
	if cfg.metrics || cfg.telemetry != "" {
		reg = obs.NewRegistry()
	}
	// One job on a service sized to the grid, as sweep.Run runs it.
	svc := sweep.NewService(store, sweep.Options{
		Jobs: cfg.jobs, Workers: cfg.workers,
		Artifacts: artifacts, Metrics: reg, MaxPending: len(scenarios),
	})
	defer svc.Close()
	// The listener opens before the job is submitted, so a bad address
	// fails the run before any scenario starts.
	var submitted atomic.Pointer[sweep.Job]
	if cfg.telemetry != "" {
		srv, err := obs.Serve(cfg.telemetry, reg, func() any {
			if job := submitted.Load(); job != nil {
				return job.Status()
			}
			return sweep.JobStatus{Total: len(scenarios)}
		})
		if err != nil {
			return fmt.Errorf("sweep: telemetry: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: telemetry listening on http://%s\n", srv.Addr())
	}
	job, err := svc.Submit(scenarios)
	if err != nil {
		return err
	}
	submitted.Store(job)
	if cfg.verbose {
		// The log is read here, not on a worker, so a slow stderr holds
		// up no scenario.
		for ev := range job.Events(context.Background()) {
			status := "ran"
			switch {
			case ev.Err != nil:
				status = "FAILED: " + ev.Err.Error()
			case ev.Cached:
				status = "cached"
			}
			sc := ev.Spec
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s/%s/%s n=%d param=%d eps=%g rep=%d: %s\n",
				ev.Done, ev.Total, ev.Hash, sc.Workload, sc.Engine, sc.Family,
				sc.N, sc.Param, sc.Epsilon, sc.Replicate, status)
		}
	}

	records, stats, runErr := job.Wait()
	fmt.Fprintf(os.Stderr, "sweep: %s\n", sweep.Summary(stats, artifacts.Stats()))
	if reg != nil {
		fmt.Fprintln(os.Stderr, "sweep: metrics:")
		if err := obs.WriteSummary(os.Stderr, reg); err != nil {
			return fmt.Errorf("sweep: metrics: %w", err)
		}
		if cfg.storePath != "" {
			f, err := os.Create(telemetryPath(cfg.storePath))
			if err == nil {
				meta := map[string]any{"store": cfg.storePath, "stats": stats.String(), "progress": job.Status()}
				err = errors.Join(obs.WriteJSONL(f, meta, reg), f.Close())
			}
			if err != nil {
				return fmt.Errorf("sweep: telemetry: %w", err)
			}
			fmt.Fprintf(os.Stderr, "sweep: telemetry written to %s\n", telemetryPath(cfg.storePath))
		}
	}

	if cfg.agg {
		var ok []sweep.Record
		for _, r := range records {
			if r.Hash != "" {
				ok = append(ok, r)
			}
		}
		printAggregate(os.Stdout, sweep.Aggregate(slices.Values(ok)))
	}
	if cfg.strict {
		runErr = errors.Join(runErr, strictErr(records))
	}
	if runErr != nil {
		return fmt.Errorf("sweep: %w", runErr)
	}
	return nil
}

// strictErr scans a batch's records for the -strict failure conditions:
// a recorded protocol failure, or output verification returning false.
func strictErr(records []sweep.Record) error {
	var failures []error
	for _, r := range records {
		if r.Hash == "" {
			continue // scenario error, already in runErr
		}
		if r.Broken() {
			failures = append(failures, fmt.Errorf("strict: %s: %w", r.Hash, r.BrokenError()))
			continue
		}
		if r.Counters.OutputOK != nil && !*r.Counters.OutputOK {
			failures = append(failures, fmt.Errorf("strict: %s: output verification failed", r.Hash))
		}
	}
	return errors.Join(failures...)
}

// runFrontier is the -frontier mode: every expanded scenario's
// adversary budget is a ceiling; bisect for the minimal breaking
// budget, all probes served through the store.
func runFrontier(scenarios []sweep.Scenario, store sweep.StoreEngine, cfg cliConfig) error {
	opt := sweep.FrontierOptions{
		Exec: sweep.Options{
			Jobs:      1,
			Workers:   cfg.workers,
			Artifacts: sim.NewCache(),
		},
	}
	if cfg.verbose {
		opt.Progress = func(p sweep.FrontierProbe) {
			status := "ran"
			if p.Cached {
				status = "cached"
			}
			outcome := "ok"
			if p.Broken {
				outcome = "BROKEN"
			}
			fmt.Fprintf(os.Stderr, "frontier: scenario %d budget %d: %s (%s)\n", p.Scenario, p.Budget, outcome, status)
		}
	}
	results, err := sweep.FrontierSearch(scenarios, store, opt)
	var probes, cached, ran int
	for _, r := range results {
		probes += r.Probes
		cached += r.Cached
		ran += r.Ran
	}
	fmt.Fprintf(os.Stderr, "sweep: frontier: scenarios=%d probes=%d cached=%d ran=%d\n",
		len(results), probes, cached, ran)
	printFrontier(os.Stdout, results)
	// -strict adds nothing here: broken probes are the point of the
	// search, and a search error already fails the run below.
	return err
}

func printFrontier(w *os.File, results []sweep.FrontierResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tengine\tfamily\tn\tparam\tstrategy\tmax_budget\tbreaking\tprobes\tcached\tran")
	for _, r := range results {
		sc := r.Scenario
		breaking := strconv.Itoa(r.Breaking)
		if r.Unbroken() {
			breaking = "-1" // unbroken up to the ceiling
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\n",
			sc.Workload, sc.Engine, sc.Family, sc.N, sc.Param,
			r.Strategy, r.MaxBudget, breaking, r.Probes, r.Cached, r.Ran)
	}
	tw.Flush()
}

func printAggregate(w *os.File, groups []sweep.Group) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tengine\tfamily\tn\tparam\teps\tnoise\treps\tbeep rounds (mean)\tbeeps/sim round (mean)\tmsg err (mean)\tmem err (mean)\tenergy (mean)\twall ms (p50/p90)\tbuild ms (mean)")
	for _, g := range groups {
		k := g.Key
		n := k.N
		if n == 0 {
			n = g.GraphN // derived-N families: report the realized size
		}
		noiseCol := k.Noise
		if noiseCol == "" {
			noiseCol = "symmetric"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.2f\t%s\t%d\t%.0f\t%.0f\t%.4f\t%.4f\t%.0f\t%.0f/%.0f\t%.2f\n",
			k.Workload, k.Engine, k.Family, n, k.Param, k.Epsilon, noiseCol,
			g.BeepRounds.Count, g.BeepRounds.Mean, g.PerSimRound.Mean,
			g.MsgErr.Mean, g.MemErr.Mean, g.Beeps.Mean, g.WallMS.P50, g.WallMS.P90,
			g.BuildMS.Mean)
	}
	tw.Flush()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// fatal prints err as it is: internal/sweep's errors and the CLI's own
// already carry the "sweep: " prefix.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
