package result

import (
	"errors"
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8.0}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := Quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailQ float64
	}{
		{1, 0}, {19, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		l := Summarize(seq(c.n))
		if l.N != c.n {
			t.Errorf("n=%d: sample count reported as %d", c.n, l.N)
		}
		if l.TailQ != c.tailQ {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, l.TailQ, c.tailQ)
			continue
		}
		if l.TailQ > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > l.Tail {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: %s = %v has only %d samples beyond it", c.n, QuantileName(l.TailQ), l.Tail, beyond)
			}
		}
		if want := float64(c.n+1) / 2; l.P50 != want {
			t.Errorf("n=%d: median %v, want %v", c.n, l.P50, want)
		}
	}
	if got := QuantileName(0.999) + QuantileName(0.99) + QuantileName(0.9); got != "p99.9p99p90" {
		t.Errorf("quantile names %q", got)
	}
}

// pairsOf pairs parent and change runs by position, as runs on the same
// seeds would be.
func pairsOf(parent, change []float64) [][2]float64 {
	var ps [][2]float64
	for i := range parent {
		ps = append(ps, [2]float64{parent[i], change[i]})
	}
	return ps
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"faster throughput", steady, scale(steady, 1.2), "higher", Better},
		{"slower throughput", steady, scale(steady, 0.8), "higher", Worse},
		{"lower latency", steady, scale(steady, 0.8), "lower", Better},
		{"higher latency", steady, scale(steady, 1.2), "lower", Worse},
		{"within noise", steady, scale(steady, 1.005), "higher", Unchanged},
		{"worse but within bound", steady, scale(steady, 0.95), "higher", Unchanged},
		{"spread wider than bound", wide, scale(wide, 1.05), "higher", Unresolved},
		{"spread wide but every run better", wide, scale(steady, 2), "higher", Better},
		{"spread wide but every run worse", wide, scale(steady, 0.5), "higher", Worse},
	} {
		row, err := Judge(c.parent, c.change, pairsOf(c.parent, c.change), c.better, 0.10)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if row.Verdict != c.want {
			t.Errorf("%s: verdict %s (gain %+.3f), want %s", c.name, row.Verdict, row.Gain, c.want)
		}
	}
	// A gain needs nine tenths of the pairs: here the change wins 8 of 10.
	mixed := scale(steady, 1.2)
	mixed[0], mixed[1] = steady[0]*0.99, steady[1]*0.99
	if row, _ := Judge(steady, mixed, pairsOf(steady, mixed), "higher", 0.10); row.Verdict != Unchanged {
		t.Errorf("8/10 pair wins: verdict %s, want %s", row.Verdict, Unchanged)
	}
	// A gain needs ten pairs, however clear it looks on fewer; a loss
	// does not.
	for n := 1; n <= 3; n++ {
		if row, _ := Judge(steady[:n], scale(steady[:n], 1.5), pairsOf(steady[:n], scale(steady[:n], 1.5)), "higher", 0.10); row.Verdict != Unresolved {
			t.Errorf("gain on %d pairs: verdict %s, want %s", n, row.Verdict, Unresolved)
		}
		if row, _ := Judge(steady[:n], scale(steady[:n], 0.5), pairsOf(steady[:n], scale(steady[:n], 0.5)), "higher", 0.10); row.Verdict != Worse {
			t.Errorf("loss on %d pairs: verdict %s, want %s", n, row.Verdict, Worse)
		}
	}
	// Without a bound a metric is never worse, but a gain still counts.
	for _, c := range []struct {
		change []float64
		want   string
	}{{steady, Info}, {scale(steady, 0.5), Info}, {scale(steady, 1.2), Better}} {
		if row, _ := Judge(steady, c.change, pairsOf(steady, c.change), "higher", 0); row.Verdict != c.want {
			t.Errorf("no bound, gain %+.2f: verdict %s, want %s", row.Gain, row.Verdict, c.want)
		}
	}
	if _, err := Judge(steady, steady, nil, "sideways", 0.1); err == nil {
		t.Error("Judge accepted a better direction other than lower/higher")
	}
}

func runOf(workload string, seed uint64, host Stamp, v float64) Run {
	return Run{Workload: workload, Seed: seed, Host: host, Correct: true, Attempted: 1,
		Metrics: map[string]Value{"scenarios_per_s": {Value: v, Unit: "1/s", Better: "higher", Bound: 0.1}}}
}

func TestCompare(t *testing.T) {
	host := Stamp{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}
	var parent, change []Run
	for s := uint64(1); s <= 10; s++ {
		parent = append(parent, runOf("alg1-grid", s, host, 100+float64(s%3)))
		change = append(change, runOf("alg1-grid", s, host, 130+float64(s%3)))
	}
	rows, err := Compare(parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Verdict != Better || rows[0].Workload != "alg1-grid" {
		t.Fatalf("rows = %+v, want one better alg1-grid row", rows)
	}

	other := host
	other.CPU = "cpu B"
	_, err = Compare(parent, append(change, runOf("alg1-grid", 11, other, 130)))
	var mismatch *HostMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("runs from two hosts: err = %v, want a HostMismatchError", err)
	}
	goOnly := host
	goOnly.Go = "go1.25.0"
	if _, err := Compare(parent, append(change, runOf("alg1-grid", 11, goOnly, 130))); err != nil {
		t.Errorf("a Go version change alone is not a host change: %v", err)
	}
}

func TestMedianOfNothingIsNaN(t *testing.T) {
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is a number")
	}
}
