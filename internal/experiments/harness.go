// Package experiments regenerates every table and figure of the
// reproduction (see DESIGN.md §3 for the experiment index). Each
// experiment is a function from a Config to a Table; cmd/experiments
// renders them all and EXPERIMENTS.md records the measured results
// against the paper's claims.
//
// A table reaches an engine through one of two doors. The
// scenario-shaped tables (T3, T4, T6, T8, T9, T11, A4) are thin views
// over the internal/sweep subsystem: they declare sweep.Scenario specs
// through runSweep and format the resulting records, reading validity
// from the records' output check. What a Scenario cannot express — T5's
// CONGEST probe, T7's Local Broadcast, T10's transcript demo and the
// non-default core.Params of A1–A3 — builds its Algorithm 1 runner
// through newRunner.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/algorithms/gossip"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Config scales the experiment suite.
type Config struct {
	// Quick selects reduced sizes (used by tests and -short runs).
	Quick bool
	// Seed drives every random choice in the suite.
	Seed uint64
	// Workers parallelizes the simulators' per-round phases. The zero
	// value deliberately means one worker per CPU — the harness has
	// always run experiments at full machine width, and a zero-valued
	// Config must keep doing so — which differs from the engine-level
	// knobs where 0 means serial; poolWorkers performs the translation.
	// 1 = serial, n = n workers. Results are bit-identical for every
	// setting — the engines' sharded pool is deterministic — so this is
	// purely a throughput knob.
	Workers int
	// Metrics, when non-nil, receives the suite's observation-only
	// telemetry (phase timers, decode counters, noise accounting) through
	// the sweep and engine layers. Never changes any table.
	Metrics *obs.Registry
}

// poolWorkers resolves Config.Workers (0 = one per CPU) to the engine
// package's convention (where 0 means serial).
func (c Config) poolWorkers() int {
	if c.Workers == 0 {
		return engine.AutoWorkers
	}
	return c.Workers
}

// Table is one experiment's result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (T0…T11, F1, A1…A4).
	ID string `json:"id"`
	// Title is a one-line description.
	Title string `json:"title"`
	// Claim restates the paper's claim being tested.
	Claim string `json:"claim"`
	// Columns and Rows hold the tabular results.
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes holds free-form observations (fit slopes, renderings).
	Notes []string `json:"notes,omitempty"`
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "Paper claim: %s\n", t.Claim)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment is a named experiment runner.
type Experiment struct {
	ID  string
	Run func(Config) (*Table, error)
}

// All returns the full suite in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "T0", Run: T0PaperConstants},
		{ID: "T1", Run: T1BeepCodeProperty},
		{ID: "T2", Run: T2DistanceCodeProperty},
		{ID: "T3", Run: T3Phase1Membership},
		{ID: "T4", Run: T4BroadcastOverhead},
		{ID: "T5", Run: T5CongestOverhead},
		{ID: "T6", Run: T6BaselineComparison},
		{ID: "T7", Run: T7LocalBroadcast},
		{ID: "T8", Run: T8MatchingNative},
		{ID: "T9", Run: T9MatchingBeeps},
		{ID: "T10", Run: T10LowerBounds},
		{ID: "T11", Run: T11NativeVsSimulated},
		{ID: "F1", Run: F1CombinedCode},
		{ID: "A1", Run: A1RepetitionAblation},
		{ID: "A2", Run: A2CodebookAblation},
		{ID: "A3", Run: A3SoloDecodingAblation},
		{ID: "A4", Run: A4EnergyAblation},
	}
}

// --- shared workload helpers ---

// runSweep routes a table's scenario list through the sweep batch
// scheduler against an in-memory store. Jobs = 1 with the Config's
// worker knob preserves the harness's historical execution profile (one
// scenario at a time, engine phases at machine width); by the
// determinism contract the records would be bit-identical either way.
func runSweep(cfg Config, scs []sweep.Scenario) ([]sweep.Record, error) {
	recs, _, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{
		Jobs:    1,
		Workers: cfg.poolWorkers(),
		Metrics: cfg.Metrics,
	})
	return recs, err
}

type gossipStats struct {
	beepPerRound int
	msgErrRate   float64
	memErrRate   float64
	nodeRounds   int
}

// outputOK reports a record's workload output check: true only for a
// run whose nodes all finished with a valid output.
func outputOK(rec sweep.Record) bool {
	ok := rec.Counters.OutputOK
	return ok != nil && *ok
}

// newRunner builds the Algorithm 1 runner for what a sweep.Scenario
// cannot express, with the Config's workers and metrics filled in over
// whatever rc sets: besides runSweep, the one way a table reaches an
// engine.
func newRunner(cfg Config, g *graph.Graph, rc core.RunnerConfig) (*core.BroadcastRunner, error) {
	rc.Workers = cfg.poolWorkers()
	rc.Metrics = cfg.Metrics
	return core.NewBroadcastRunner(g, rc)
}

// runGossip executes the gossip workload over the Algorithm 1 runner
// with explicit (non-default) Params — the escape hatch for ablations
// whose parameterization a sweep.Scenario cannot express — and reports
// per-round error rates. codes, when non-nil, are p's prebuilt tables.
func runGossip(cfg Config, g *graph.Graph, p core.Params, codes *core.Codes, rounds int, channelSeed, algSeed uint64) (gossipStats, error) {
	runner, err := newRunner(cfg, g, core.RunnerConfig{
		Params:      p,
		Codes:       codes,
		ChannelSeed: channelSeed,
		AlgSeed:     algSeed,
	})
	if err != nil {
		return gossipStats{}, err
	}
	res, err := runner.Run(gossip.New(g.N(), rounds), gossip.Budget(rounds))
	if err != nil {
		return gossipStats{}, err
	}
	nodeRounds := g.N() * res.SimRounds
	return gossipStats{
		beepPerRound: res.BeepRounds / max(res.SimRounds, 1),
		msgErrRate:   float64(res.MessageErrors) / float64(nodeRounds),
		memErrRate:   float64(res.MembershipErrors) / float64(nodeRounds),
		nodeRounds:   nodeRounds,
	}, nil
}

// regularGraph builds a Δ-regular graph of n nodes (falling back to the
// bounded-degree random model when nΔ is odd); the construction is
// sweep's FamilyRegular, so tables and sweeps share one graph recipe.
func regularGraph(n, delta int, seed uint64) (*graph.Graph, error) {
	return sweep.Scenario{Family: sweep.FamilyRegular, N: n, Param: delta, GraphSeed: seed}.BuildGraph()
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }
