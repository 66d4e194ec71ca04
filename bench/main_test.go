package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/bench/result"
	"repro/internal/sweep"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a batch workload times its set-up in processes of its own.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup") {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestDigestIgnoresTiming(t *testing.T) {
	scs, err := sweep.Grid{Families: []string{sweep.FamilyRegular}, Ns: []int{12}, Params: []int{3},
		Epsilons: []float64{0.1}, Engines: []string{sweep.EngineAlg1, sweep.EngineTDMA},
		Workloads: []string{sweep.WorkloadMIS}, Replicates: 2, BaseSeed: 5}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := digest(recs)
	retimed := append([]sweep.Record(nil), recs...)
	for i := range retimed {
		retimed[i].WallNanos, retimed[i].BuildNanos = int64(1000*i+7), int64(31*i+1)
	}
	if got := digest(retimed); got != want {
		t.Errorf("digest changed with the timing fields alone: %s vs %s", got, want)
	}
	changed := append([]sweep.Record(nil), recs...)
	changed[0].Counters.BeepRounds++
	if digest(changed) == want {
		t.Error("digest did not change with a counter")
	}
	swapped := append([]sweep.Record(nil), recs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if digest(swapped) == want {
		t.Error("digest does not depend on record order")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestQuickSmoke runs every workload at toy size, untraced and traced,
// and checks each run's summary line against the output contract: the
// four keys, and exactly the end-to-end or per-layer metrics.
func TestQuickSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{seed: 3, trace: trace, quick: true, nproc: 2, self: self, root: root, work: t.TempDir(), log: &out}
			o, err := runWorkload(cfg, name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			run := assemble(cfg, name, o, result.Stamp{})
			printRun(cfg, run, o)
			if !run.Correct || run.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d: %v", name, trace, run.Correct, run.Failed, o.problems)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
				t.Errorf("%s trace=%v: summary keys %v", name, trace, slices.Sorted(maps.Keys(line)))
			}
			var metrics map[string]lineValue
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := metrics[s.Name]
				switch {
				case !ok || v.Unit != s.Unit:
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", name, trace, s.Name, v.Unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.Name, v.Value)
				}
			}
			if trace {
				if u := metrics["unattributed_share"].Value; u < 0 || u > 1 || math.IsNaN(u) {
					t.Errorf("%s: unattributed_share %v outside [0, 1]", name, u)
				}
				if len(run.Spans) == 0 || len(run.Layers) == 0 {
					t.Errorf("%s: traced run has %d spans, %d layers", name, len(run.Spans), len(run.Layers))
				}
			}
		}
	}
}
