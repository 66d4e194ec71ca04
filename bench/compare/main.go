// Command compare judges two sets of benchmark runs against each other:
// the parent commit's and a change's, each a file of run records as the
// benchmark's -out flag appends them. It prints one row per workload ×
// metric with each side's median and quartiles and a verdict (better,
// worse, unchanged, or unresolved when the runs spread wider than the
// metric's bound), and refuses runs measured on different hosts.
//
// Usage, from the bench directory:
//
//	go run ./compare parent.jsonl change.jsonl
//
// It exits 1 when any metric is worse, 2 on a usage error or a host
// mismatch.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/bench/result"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare PARENT.jsonl CHANGE.jsonl")
		os.Exit(2)
	}
	parent, err := load(os.Args[1])
	if err != nil {
		fatal(err)
	}
	change, err := load(os.Args[2])
	if err != nil {
		fatal(err)
	}
	rows, err := result.Compare(parent, change)
	if err != nil {
		fatal(err)
	}
	if len(rows) == 0 {
		fatal(errors.New("compare: no workload × metric appears in both files"))
	}
	if parent[0].Host.Go != change[0].Host.Go {
		fmt.Fprintf(os.Stderr, "compare: warning: Go versions differ (%s vs %s)\n", parent[0].Host.Go, change[0].Host.Go)
	}
	if write(os.Stdout, rows) {
		os.Exit(1)
	}
}

// write prints the comparison table and reports whether any row is
// worse.
func write(w io.Writer, rows []result.Row) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tgain\tbound\tverdict")
	worse := false
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.3f\t%s\t%s\n", r.Workload, r.Metric, r.Unit,
			side(r.Parent), side(r.Change), r.Gain, bound, r.Verdict)
		worse = worse || r.Verdict == result.Worse
	}
	tw.Flush()
	return worse
}

func side(s result.Side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}

// load reads a file of run records, one JSON object per line.
func load(path string) ([]result.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	var runs []result.Run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // traced runs carry every span on one line
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result.Run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("compare: %s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: read %s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("compare: %s holds no runs", path)
	}
	return runs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
