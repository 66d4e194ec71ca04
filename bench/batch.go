package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/result"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// batchWorkload is a grid run cold through sweep.Run, once per
// repetition, each time into a fresh in-memory store and a fresh
// artifact cache.
type batchWorkload struct {
	// grids returns the workload's grids for a seed, at full or toy size.
	grids func(seed uint64, quick bool) []sweep.Grid
	// serial runs one scenario at a time (Jobs = 1) instead of one per CPU.
	serial bool
}

var batchWorkloads = map[string]batchWorkload{
	// Algorithm 1 over regular graphs and PG(2,q) incidence graphs. The
	// pg half shares one topology across replicates, the shape a
	// lane-sliced Algorithm 1 would batch; the regular half cannot be
	// sliced and is the control.
	"alg1-grid": {grids: func(seed uint64, quick bool) []sweep.Grid {
		reg := sweep.Grid{Families: []string{sweep.FamilyRegular}, Ns: []int{64, 128}, Params: []int{4, 8},
			Epsilons: []float64{0.1}, Engines: []string{sweep.EngineAlg1},
			Workloads: []string{sweep.WorkloadGossip, sweep.WorkloadMIS}, Replicates: 4, BaseSeed: seed}
		pg := reg
		pg.Families, pg.Ns, pg.Params, pg.Replicates = []string{sweep.FamilyPG}, nil, []int{5, 7}, 8
		if quick {
			reg.Ns, reg.Params, reg.Replicates = []int{16}, []int{3}, 2
			pg.Params, pg.Replicates = []int{2}, 2
		}
		return []sweep.Grid{reg, pg}
	}},
	// TDMA replicates in 64-lane groups on a quiet and a noisy channel:
	// the ε=0 half takes the sliced runner's quiet shortcuts, the
	// ε=0.05 half pays per-lane flip replay. q stops at 5 because a
	// traced noisy group holds a flip-counting buffer per lane and node
	// (noise.Counting): with q=7 a traced run peaks near 3 GB, against
	// about 1 GB here.
	"tdma-replicates": {grids: func(seed uint64, quick bool) []sweep.Grid {
		g := sweep.Grid{Families: []string{sweep.FamilyPG}, Params: []int{3, 5}, Epsilons: []float64{0, 0.05},
			Engines: []string{sweep.EngineTDMA}, Workloads: []string{sweep.WorkloadGossip, sweep.WorkloadMIS},
			Replicates: 64, BaseSeed: seed}
		if quick {
			g.Params, g.Replicates = []int{2}, 4
		}
		return []sweep.Grid{g}
	}},
	// The native sparse beep wave on the streaming geo family: graph
	// generation, the active-set executor and memory, with no codes,
	// decoder, TDMA or noise in the path.
	"geo-wave": {serial: true, grids: func(seed uint64, quick bool) []sweep.Grid {
		g := sweep.Grid{Families: []string{sweep.FamilyGeo}, Ns: []int{1 << 18}, Epsilons: []float64{0},
			Engines: []string{sweep.EngineBeep}, Workloads: []string{sweep.WorkloadBroadcast},
			BaseSeed: seed}
		if quick {
			g.Ns = []int{1024}
		}
		return []sweep.Grid{g}
	}},
}

// minReps is the fewest timed repetitions a batch run makes: enough to
// compare digests, and in a traced run two traced and two untraced.
func minReps(trace bool) int {
	if trace {
		return 4
	}
	return 2
}

// setupRuns is how many fresh processes measure a run's set-up.
const setupRuns = 5

// expandAll expands a batch workload's grids, in order.
func expandAll(cfg config, w batchWorkload) ([]sweep.Scenario, error) {
	var scs []sweep.Scenario
	for _, g := range w.grids(cfg.seed, cfg.quick) {
		s, err := g.Expand()
		if err != nil {
			return nil, err
		}
		scs = append(scs, s...)
	}
	return scs, nil
}

func jobsOf(cfg config, w batchWorkload) int {
	if w.serial {
		return 1
	}
	return cfg.nproc
}

// setupOnce is the set-up a child process runs: grid expansion and the
// warm-up repetition. It prints the records digest, or the failure.
func setupOnce(cfg config, name string) error {
	w := batchWorkloads[name]
	scs, err := expandAll(cfg, w)
	if err != nil {
		return err
	}
	recs, st, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{Jobs: jobsOf(cfg, w)})
	o := newOutcome(false)
	o.checkRecords("set-up", recs, st, err)
	if o.failed > 0 {
		return errors.New(strings.Join(o.problems, "; "))
	}
	fmt.Fprintln(cfg.log, digest(recs))
	return nil
}

// setupChild times one set-up in a fresh process — a copy of this
// binary run with --setup — from spawn to exit, so process start and
// every lazy initialisation count. It returns that time, the process's
// peak RSS in MB, and the digest it printed.
func setupChild(cfg config, name string) (took, rssMB float64, digest string, err error) {
	cmd := exec.Command(cfg.self, "--setup", "--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--quick="+strconv.FormatBool(cfg.quick))
	cmd.Dir = cfg.root
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t := time.Now()
	err = cmd.Run()
	took = time.Since(t).Seconds()
	if err != nil {
		return 0, 0, "", fmt.Errorf("set-up process: %v: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, "", errors.New("set-up process: no resource usage")
	}
	return took, float64(ru.Maxrss) / 1024, strings.TrimSpace(out.String()), nil // Maxrss is in kB
}

// runBatch measures a batch workload. Set-up is grid expansion plus
// one warm-up repetition, timed in setupRuns fresh processes, so work
// that moves out of the repetitions into start-up or first use still
// shows. Each of those processes runs the workload once, so peak
// memory is the median of their peaks: one process's peak moves by up
// to a fifth with where its garbage collections fall. Then repetitions
// run in this process until the time is spent; in a traced run every
// second one carries an obs registry. Throughput comes from the
// untraced repetitions' best rates (rates).
func runBatch(cfg config, name string, w batchWorkload) (*outcome, error) {
	o := newOutcome(cfg.trace)
	jobs := jobsOf(cfg, w)
	expand := o.tr.open("grid.expand", 0, 0)
	scs, err := expandAll(cfg, w)
	if err != nil {
		return nil, err
	}
	o.tr.close(expand, "")
	var childDigests []string
	var rss []float64
	for i := 0; i < setupRuns; i++ {
		took, mb, d, err := setupChild(cfg, name)
		o.attempt(len(scs))
		if err != nil {
			o.fail(len(scs), "%v", err)
			continue
		}
		o.setup, rss = append(o.setup, took), append(rss, mb)
		childDigests = append(childDigests, d)
	}
	o.e2e["peak_rss_mb"], o.samples["peak_rss_mb"] = result.Median(rss), len(rss)
	cfg.logf("set-up: %d scenarios, jobs=%d, %v s, peak RSS %v MB (expand + warm-up, fresh processes)", len(scs), jobs, o.setup, rss)

	best, bestTraced := rates{}, rates{}
	var first []sweep.Record
	var walls, tracedWalls []float64
	agg := snapshot{}
	var alloc uint64
	deadline := time.Now().Add(cfg.duration())
	for i := 0; i < minReps(cfg.trace) || time.Now().Before(deadline); i++ {
		traced := cfg.trace && i%2 == 1
		var reg *obs.Registry
		var before runtime.MemStats
		span := "sweep.Run"
		if traced {
			reg = obs.NewRegistry()
			runtime.ReadMemStats(&before)
			span = "sweep.Run.traced"
		}
		call := o.tr.open(span, 0, i+1)
		t := time.Now()
		recs, st, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{Jobs: jobs, Metrics: reg})
		wall := time.Since(t).Seconds()
		o.tr.close(call, "")
		o.attempted += len(scs)
		o.checkRecords(fmt.Sprintf("rep %d", i+1), recs, st, err)
		d := digest(recs)
		if i == 0 {
			o.digest, first = d, recs
			for _, c := range childDigests {
				if c != d {
					o.fail(1, "records digest %s differs from a set-up process's %s", d, c)
				}
			}
		} else if d != o.digest {
			o.fail(1, "rep %d: records digest %s differs from rep 1's %s", i+1, d, o.digest)
		}
		if len(recs) != len(scs) {
			continue // counted as failed above
		}
		if traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			agg.add(snap(reg.Snapshot()))
			tracedWalls = append(tracedWalls, wall)
			bestTraced.observe(recs)
		} else {
			walls = append(walls, wall)
			best.observe(recs)
		}
		cfg.logf("rep %d: %.3fs traced=%v", i+1, wall, traced)
	}

	busy := best.busy(first)
	nodeRounds := nodeRoundsOf(first)
	o.throughput(len(scs), nodeRounds, busy, jobs, best.samples)
	o.addLatency("rep", walls)
	if cfg.trace {
		ops := float64(len(tracedWalls))
		var wallSum float64
		for _, w := range tracedWalls {
			wallSum += w
		}
		capacity := wallSum * float64(jobs)
		o.table = engineLayers(agg, capacity, ops, nodeRounds*ops, o.layers)
		misses, hits := agg.val("sweep.store.misses"), agg.val("sweep.store.hits")
		o.layers["sweep.batch.schedule_wait_share"] = ratio(agg.secs("sweep.batch.schedule_wait_nanos"), capacity)
		o.layers["sweep.batch.lanes_per_group"] = ratio(misses, agg.val("sweep.batch.groups"))
		o.layers["sweep.store.hit_ratio"] = ratio(hits, hits+misses)
		o.layers["process.alloc_bytes"] = float64(alloc) / ops
		o.layers["trace.overhead"] = bestTraced.busy(first)/busy - 1
	}
	return o, nil
}

// rates keeps, for each class of scenarios — specs equal but for their
// seeds — the fastest rate observed: simulated node-rounds per second
// of the scenario's build+run time.
//
// Throughput is read from these best rates rather than from wall
// times. On a shared host other tenants only ever slow a scenario
// down: on a 2-vCPU KVM guest, one 64-lane TDMA group of fixed input
// took from 0.32 s to 0.66 s within the same minute. So the time of a
// repetition, or of the median scenario, wanders with the neighbours
// from run to run. Most scenarios last milliseconds and a class
// gathers dozens to hundreds of them per run, so its fastest one tends
// to meet a quiet moment.
type rates struct {
	best    map[sweep.Scenario]float64
	samples int
}

func classOf(sc sweep.Scenario) sweep.Scenario {
	sc.Replicate, sc.GraphSeed, sc.ChannelSeed, sc.AlgSeed = 0, 0, 0, 0
	return sc
}

// workOf is a record's simulated work, n·beep_rounds; secsOf is its
// build+run time.
func workOf(r sweep.Record) float64 { return float64(r.Graph.N) * float64(r.Counters.BeepRounds) }
func secsOf(r sweep.Record) float64 { return float64(r.BuildNanos+r.WallNanos) / 1e9 }

func (b *rates) observe(recs []sweep.Record) {
	if b.best == nil {
		b.best = map[sweep.Scenario]float64{}
	}
	for _, r := range recs {
		if t := secsOf(r); t > 0 {
			k := classOf(r.Spec)
			b.best[k] = max(b.best[k], workOf(r)/t)
			b.samples++
		}
	}
}

// busy is the build+run time recs would take at their classes' best
// rates, in seconds.
func (b *rates) busy(recs []sweep.Record) float64 {
	var s float64
	for _, r := range recs {
		s += workOf(r) / b.best[classOf(r.Spec)]
	}
	return s
}

// checkRecords counts a repetition's failures: scenario errors, and
// records whose output verification failed or that carry a failure.
func (o *outcome) checkRecords(what string, recs []sweep.Record, st sweep.Stats, err error) {
	if err != nil {
		o.fail(st.Failed, "%s: %v", what, err)
	}
	bad := 0
	for _, r := range recs {
		if r.Hash != "" && (r.Failure != "" || (r.Counters.OutputOK != nil && !*r.Counters.OutputOK)) {
			bad++
		}
	}
	if bad > 0 {
		o.fail(bad, "%s: %d records failed output verification", what, bad)
	}
}

// digest is the SHA-256 of records as JSONL in input order, with the
// two timing fields — the only parts of a record that are not a pure
// function of its spec — zeroed.
func digest(recs []sweep.Record) string {
	h := sha256.New()
	for _, r := range recs {
		r.WallNanos, r.BuildNanos = 0, 0
		line, err := sweep.EncodeLine(r)
		if err != nil {
			panic(err) // a Record holds only encodable fields
		}
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// nodeRoundsOf is Σ n·beep_rounds: the simulated work behind records.
func nodeRoundsOf(recs []sweep.Record) float64 {
	var s float64
	for _, r := range recs {
		s += workOf(r)
	}
	return s
}
