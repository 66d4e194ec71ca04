package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// WriteSummary renders the registry's metrics as an aligned end-of-run
// table, sorted by name. Counters, gauges, and funcs print one value;
// histograms and timers print count, mean, and the approximate p50/p99.
// Timer values render as durations. A nil registry writes nothing.
func WriteSummary(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tkind\tvalue\n")
	for _, m := range snap {
		switch m.Kind {
		case "counter", "gauge", "func":
			fmt.Fprintf(tw, "%s\t%s\t%d\n", m.Name, m.Kind, m.Value)
		case "timer":
			fmt.Fprintf(tw, "%s\t%s\tn=%d sum=%s mean=%s p50=%s p99=%s\n",
				m.Name, m.Kind, m.Count, nanos(m.Sum), nanos(mean(m)), nanos(m.P50), nanos(m.P99))
		default: // histogram
			fmt.Fprintf(tw, "%s\t%s\tn=%d sum=%d mean=%d p50=%d p99=%d\n",
				m.Name, m.Kind, m.Count, m.Sum, mean(m), m.P50, m.P99)
		}
	}
	return tw.Flush()
}

func mean(m Metric) int64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / m.Count
}

func nanos(n int64) string {
	d := time.Duration(n)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}

// WriteJSONL writes the registry snapshot to w as a single JSON line —
// the telemetry artifact format: a caller header (run stats, progress)
// under "meta" and the sorted metric snapshot under "metrics". cmd/sweep
// re-creates <store>.telemetry.jsonl beside the result store on every
// run, so the file holds one line, the last run's: one JSON document.
func WriteJSONL(w io.Writer, meta any, r *Registry) error {
	line := struct {
		Meta    any      `json:"meta,omitempty"`
		Metrics []Metric `json:"metrics"`
	}{Meta: meta, Metrics: r.Snapshot()}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
