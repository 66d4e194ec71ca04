// Command bench is the repository benchmark: four workloads, from
// Algorithm 1's hot loop to a live sweepd, each measured end to end and
// checked for correct output, with a separate traced run that breaks the
// time down by layer. See README.md for the workloads and metrics.
//
// Run it from the repository root through bench/run.sh, which builds it
// inside the checkout:
//
//	bash bench/run.sh --workload alg1-grid --seed 1 --seconds 10 --trace 0
//
// --workload all (the default) runs every workload, each in its own
// child process. The last line of standard output is one JSON object:
// correctness, operation counts, and the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). --out appends the full record
// of each run — host stamp, sample counts, details, layer table and
// spans — to a file that compare (go run ./compare) reads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bench/result"
)

// workloadNames in the order "all" runs them.
var workloadNames = []string{"alg1-grid", "tdma-replicates", "geo-wave", "sweepd-mixed"}

// pinnedSeed1 are the records digests at seed 1, full size. For
// sweepd-mixed it covers the fixture and phase (c)'s first grid.
var pinnedSeed1 = map[string]string{
	"alg1-grid":       "fa75b7a8e7ca40d3a46b92c6777f49550ed3fa745c78f019e46990610699b9bd",
	"tdma-replicates": "e0050d659c6dd9b948e895155330009e5fcdde7bf8508625bc7c6a795c829252",
	"geo-wave":        "b6bee5d6f41e8fb62486b060afc274fc48f2fdc469dc6000bafd4f3d6fb1ede1",
	"sweepd-mixed":    "612c3d600377db2ef83eaf28bcc059dd6d8bcffc7b25e839e188c01930304f7b",
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	nproc   int
	self    string // this binary, which set-up processes run
	root    string // repository root
	work    string // scratch directory of this run
	log     io.Writer
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "bench: "+format+"\n", args...)
}

// outcome is what a workload measured; its methods are safe for the
// concurrent clients of sweepd-mixed.
type outcome struct {
	mu        sync.Mutex
	setup     []float64 // seconds, one per set-up
	e2e       map[string]float64
	samples   map[string]int
	details   map[string]result.Value
	layers    map[string]float64
	table     []result.Layer
	attempted int
	failed    int
	problems  []string
	digest    string
	tr        *tracer
}

func newOutcome(trace bool) *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int{}, details: map[string]result.Value{},
		layers: map[string]float64{}, tr: newTracer(trace)}
}

func (o *outcome) attempt(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

// fail counts n failed operations and records why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed += max(n, 1)
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// addLatency reports a latency sample (seconds) under the percentile
// rule as details name_p50_ms and, where one has ten samples beyond
// it, the highest tail percentile.
func (o *outcome) addLatency(name string, secs []float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	l := result.Summarize(ms)
	if l.N == 0 {
		return
	}
	o.details[name+"_p50_ms"] = result.Value{Value: l.P50, Unit: "ms", Better: "lower", Samples: l.N}
	if l.TailQ > 0 {
		o.details[name+"_"+result.QuantileName(l.TailQ)+"_ms"] = result.Value{Value: l.Tail, Unit: "ms", Better: "lower", Samples: l.N}
	}
}

// throughput reports scenarios and node-rounds per second over busy,
// the build+run seconds they take on one of jobs workers: a per-layer
// metric of a traced run, and in every run a detail that compare
// judges.
func (o *outcome) throughput(scenarios int, nodeRounds, busy float64, jobs, samples int) {
	for name, v := range map[string]float64{
		"scenarios_per_s":   float64(scenarios*jobs) / busy,
		"node_rounds_per_s": nodeRounds * float64(jobs) / busy,
	} {
		o.layers[name] = v
		o.details[name] = result.Value{Value: v, Unit: "1/s", Better: "higher", Samples: samples}
	}
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Float64("seconds", 10, "measurement time per workload")
	trace := flag.Int("trace", 0, "1 = traced run, reporting per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "append each run's full record as one JSON line to this file")
	quick := flag.Bool("quick", false, "toy sizes: a smoke test of the workloads")
	setup := flag.Bool("setup", false, "run one set-up of a batch workload, print its records digest and exit (the benchmark runs itself this way)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		usage("--trace must be 0 or 1")
	}
	root, err := findRoot()
	if err != nil {
		usage(err.Error())
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
		nproc: runtime.NumCPU(), self: self, root: root, log: os.Stdout}
	if *setup {
		if _, ok := batchWorkloads[*workload]; !ok {
			usage("--setup needs a batch workload")
		}
		if err := setupOnce(cfg, *workload); err != nil {
			fatal(err)
		}
		return
	}
	host := result.HostStamp(root)
	cfg.logf("host %s", host)

	if *workload == "all" {
		os.Exit(runAll(cfg, os.Args[1:]))
	}
	if !known(*workload) {
		usage("unknown workload " + strconv.Quote(*workload))
	}
	cfg.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	o, err := runWorkload(cfg, *workload)
	os.RemoveAll(cfg.work)
	if err != nil {
		fatal(err)
	}
	run := assemble(cfg, *workload, o, host)
	if *out != "" {
		if err := appendRun(*out, run); err != nil {
			fatal(err)
		}
	}
	printRun(cfg, run, o)
	if !run.Correct {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if line, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(line) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (go.mod of module repro) above the working directory")
		}
		dir = parent
	}
}

// runWorkload measures one workload in this process and fills in its
// set-up time and digest check.
func runWorkload(cfg config, name string) (*outcome, error) {
	var o *outcome
	var err error
	if name == "sweepd-mixed" {
		o, err = runSweepd(cfg)
	} else {
		o, err = runBatch(cfg, name, batchWorkloads[name])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	o.e2e["setup_s"] = result.Median(o.setup)
	o.samples["setup_s"] = len(o.setup)
	if want, ok := pinnedSeed1[name]; ok && cfg.seed == 1 && !cfg.quick && o.digest != want {
		o.fail(1, "records digest %s differs from the one pinned for seed 1, %s", o.digest, want)
	}
	return o, nil
}

// vmHWM is a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}

// assemble builds the run record: the end-to-end metrics with their
// bounds, and in a traced run the per-layer metrics, layers and spans.
func assemble(cfg config, name string, o *outcome, host result.Stamp) result.Run {
	run := result.Run{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		Host: host, Attempted: o.attempted, Failed: o.failed, Digest: o.digest, Metrics: map[string]result.Value{}}
	for _, m := range endToEnd {
		run.Metrics[m.Name] = result.Value{Value: o.e2e[m.Name], Unit: m.Unit, Better: m.Better, Bound: m.Bound, Samples: o.samples[m.Name]}
	}
	for n, v := range o.details {
		run.Metrics[n] = v
	}
	if cfg.trace {
		for n, v := range layerMetrics(o.layers) {
			run.Metrics[n] = v
		}
		run.Layers, run.Spans = o.table, o.tr.all()
	}
	for n, v := range run.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			o.fail(1, "metric %s is not a number", n)
			run.Metrics[n] = result.Value{Unit: v.Unit}
		}
	}
	run.Failed = o.failed
	run.Correct = o.failed == 0 && run.Attempted > 0
	return run
}

func appendRun(path string, run result.Run) error {
	b, err := json.Marshal(run)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints the run for a reader — problems, every metric with
// its unit and sample count, the layer table — and ends with the
// summary line.
func printRun(cfg config, run result.Run, o *outcome) {
	for _, p := range o.problems {
		cfg.logf("FAILED: %s", p)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line := summaryLine{Correct: run.Correct, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]lineValue{}}
	for _, s := range specs {
		v := run.Metrics[s.Name]
		line.Metrics[s.Name] = lineValue{Value: v.Value, Unit: v.Unit}
	}
	for _, n := range slices.Sorted(maps.Keys(run.Metrics)) {
		v := run.Metrics[n]
		s := fmt.Sprintf("%s %s = %.6g %s", run.Workload, n, v.Value, v.Unit)
		if v.Samples > 0 {
			s += fmt.Sprintf(" (n=%d)", v.Samples)
		}
		cfg.logf("%s", s)
	}
	for _, l := range run.Layers {
		cfg.logf("layer %-22s parent %-20s total %10.4fs self %10.4fs share %.4f", l.Name, l.Parent, l.TotalS, l.SelfS, l.Share)
	}
	cfg.logf("%s: correct=%v attempted=%d failed=%d digest=%s", run.Workload, run.Correct, run.Attempted, run.Failed, run.Digest)
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(cfg.log, string(b))
}

// runAll runs every workload in its own child process, so each one's
// peak memory is its own, and ends with a summary line whose metrics
// are keyed workload/metric.
func runAll(cfg config, args []string) int {
	all := summaryLine{Correct: true, Metrics: map[string]lineValue{}}
	for _, name := range workloadNames {
		cmd := exec.Command(cfg.self, append(append([]string(nil), args...), "--workload", name)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fatal(err)
		}
		if err := cmd.Start(); err != nil {
			fatal(err)
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(cfg.log, last)
		}
		err = cmd.Wait()
		var line summaryLine
		if jerr := json.Unmarshal([]byte(last), &line); jerr != nil || err != nil {
			cfg.logf("%s: failed (%v)", name, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for n, v := range line.Metrics {
			all.Metrics[name+"/"+n] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(cfg.log, string(b))
	if !all.Correct {
		return 1
	}
	return 0
}
