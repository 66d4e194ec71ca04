// Package result is the benchmark's record format and the statistics
// both the benchmark and its comparator apply to it: the host stamp
// every run carries, Python-compatible quartiles, the percentile
// reporting rule, and the better/worse/unchanged/unresolved verdict.
package result

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Stamp identifies where a run was measured. Runs compare only when
// their CPU model, CPU count and GOMAXPROCS agree.
type Stamp struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// HostStamp reads the stamp of the running process. The commit is
// "unknown" outside a git checkout.
func HostStamp(repoRoot string) Stamp {
	st := Stamp{
		Commit:     "unknown",
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if out, err := exec.Command("git", "-C", repoRoot, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// SameHost reports whether two stamps come from the same kind of host.
func (s Stamp) SameHost(o Stamp) bool {
	return s.CPU == o.CPU && s.NProc == o.NProc && s.GOMAXPROCS == o.GOMAXPROCS
}

func (s Stamp) String() string {
	return fmt.Sprintf("commit=%s cpu=%q nproc=%d gomaxprocs=%d go=%s", s.Commit, s.CPU, s.NProc, s.GOMAXPROCS, s.Go)
}

// Value is one measured metric. Better and Bound are set for metrics
// the comparator judges; Samples counts the observations behind it.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// Layer is one row of a traced run's per-layer table. Self is Total
// minus the time of the layer's children; Share is Self divided by the
// workload's capacity (wall time × concurrent jobs).
type Layer struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share"`
}

// Span is one timed call the benchmark made into the program, with
// times in seconds since the run started.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Req    int     `json:"req,omitempty"`
	Job    string  `json:"job,omitempty"`
}

// Run is the full record of one benchmark run: one JSON line of the
// file the benchmark's -out flag appends to.
type Run struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Quick     bool             `json:"quick,omitempty"`
	Host      Stamp            `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"digest"`
	Metrics   map[string]Value `json:"metrics"`
	Layers    []Layer          `json:"layers,omitempty"`
	Spans     []Span           `json:"spans,omitempty"`
}

// Quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method). One value is its own quartiles.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld, n := len(d), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// Median is the middle value (the mean of the middle two for an even
// count); NaN for no values.
func Median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch {
	case len(d) == 0:
		return math.NaN()
	case len(d)%2 == 1:
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// Latency summarises a sample of timings: the median, and the highest
// of the tail percentiles that has at least ten samples beyond it.
type Latency struct {
	N     int
	P50   float64
	TailQ float64 // 0 when no tail percentile is reportable
	Tail  float64
}

// tailQuantiles are the tail percentiles Summarize may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// Summarize applies the reporting rule to samples: a percentile at
// nearest rank k (1-based) is reported only when n-k ≥ 10 samples lie
// beyond it.
func Summarize(samples []float64) Latency {
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	l := Latency{N: len(d), P50: Median(d)}
	for _, q := range tailQuantiles {
		if v, ok := percentile(d, q); ok {
			l.TailQ, l.Tail = q, v
			break
		}
	}
	return l
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether at least ten samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 || n-k < 10 {
		return 0, false
	}
	return sorted[k-1], true
}

// QuantileName spells q as a percentile label: 0.99 → "p99".
func QuantileName(q float64) string {
	return "p" + strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}
