package result

import (
	"fmt"
	"math"
	"sort"
)

// Verdicts of Judge.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
	Info       = "info" // no bound and no gain: medians only
)

// Side summarises one commit's runs of one workload × metric.
type Side struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(values []float64) Side {
	q1, _, q3 := Quartiles(values)
	return Side{Median: Median(values), Q1: q1, Q3: q3, N: len(values)}
}

// Spread is the interquartile distance as a share of the median.
func (s Side) Spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// Row is one workload × metric line of a comparison.
type Row struct {
	Workload, Metric, Unit, Better string
	Bound                          float64
	Parent, Change                 Side
	// Gain is the change's median relative to the parent's, signed so
	// that positive is better.
	Gain    float64
	Verdict string
}

// MinPairs is the fewest pairs of runs on which a gain may be claimed.
const MinPairs = 10

// Judge compares a parent's runs with a change's runs of one metric.
// pairs holds (parent, change) values of runs made on the same seed.
// better is "lower" or "higher"; bound is the share of the parent's
// median by which the change may be worse.
//
// Where either side's spread exceeds the bound the verdict is
// unresolved, unless every change run beats (or loses to) every parent
// run. Otherwise a median worse by more than the bound is worse; a
// median better by more than the parent's interquartile distance, with
// the change winning at least nine tenths of the pairs, is better; and
// anything else is unchanged. A metric without a bound (bound 0) can
// only be better, by the same gain rule, or info. A gain on fewer than
// MinPairs pairs is unresolved: too few runs to claim it.
func Judge(parent, change []float64, pairs [][2]float64, better string, bound float64) (Row, error) {
	if len(parent) == 0 || len(change) == 0 {
		return Row{}, fmt.Errorf("result: judge needs runs on both sides (parent %d, change %d)", len(parent), len(change))
	}
	var sign float64
	switch better {
	case "lower":
		sign = -1
	case "higher":
		sign = 1
	default:
		return Row{}, fmt.Errorf("result: better must be lower or higher, got %q", better)
	}
	a, b := summarize(parent), summarize(change)
	row := Row{Better: better, Bound: bound, Parent: a, Change: b,
		Gain: sign * (b.Median - a.Median) / math.Abs(a.Median)}
	beats := func(x, y float64) bool { return sign*(x-y) > 0 } // x better than y
	gain := row.Gain > 0 && math.Abs(b.Median-a.Median) > a.Q3-a.Q1 && winShare(pairs, beats) >= 0.9
	switch {
	case bound <= 0 && gain:
		row.Verdict = Better
	case bound <= 0:
		row.Verdict = Info
	case a.Spread() > bound || b.Spread() > bound:
		row.Verdict = Unresolved
		if beats(worst(change, sign), best(parent, sign)) {
			row.Verdict = Better
		} else if beats(worst(parent, sign), best(change, sign)) {
			row.Verdict = Worse
		}
	case row.Gain < -bound:
		row.Verdict = Worse
	case gain:
		row.Verdict = Better
	default:
		row.Verdict = Unchanged
	}
	if row.Verdict == Better && len(pairs) < MinPairs {
		row.Verdict = Unresolved
	}
	return row, nil
}

// worst returns the worst value of xs under the orientation sign (the
// smallest when higher is better), best the best.
func worst(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if sign*(x-w) < 0 {
			w = x
		}
	}
	return w
}

func best(xs []float64, sign float64) float64 { return worst(xs, -sign) }

// winShare is the share of pairs the change wins; ties count for
// neither side.
func winShare(pairs [][2]float64, beats func(x, y float64) bool) float64 {
	if len(pairs) == 0 {
		return 0
	}
	wins := 0
	for _, p := range pairs {
		if beats(p[1], p[0]) {
			wins++
		}
	}
	return float64(wins) / float64(len(pairs))
}

// HostMismatchError reports runs measured on different hosts.
type HostMismatchError struct{ Parent, Change Stamp }

func (e *HostMismatchError) Error() string {
	return fmt.Sprintf("result: refusing to compare runs from different hosts:\n  parent: %s\n  change: %s", e.Parent, e.Change)
}

// Compare judges every workload × metric present in both sets of runs.
// It refuses (HostMismatchError) when any two runs were measured on
// different hosts. Traced runs, whose timings carry the tracing
// overhead, are judged only against traced runs, under the workload
// name suffixed "+trace". Rows come sorted by workload, then metric.
func Compare(parent, change []Run) ([]Row, error) {
	if len(parent) == 0 || len(change) == 0 {
		return nil, fmt.Errorf("result: compare needs runs on both sides (parent %d, change %d)", len(parent), len(change))
	}
	runs := [2][]Run{parent, change}
	for _, side := range runs {
		for _, r := range side {
			if first := runs[0][0].Host; !first.SameHost(r.Host) {
				return nil, &HostMismatchError{Parent: first, Change: r.Host}
			}
		}
	}
	type key struct{ workload, metric string }
	type series struct {
		unit, better string
		bound        float64
		values       [2][]float64            // parent, change
		bySeed       [2]map[uint64][]float64 // the same values by seed, for pairing
	}
	all := map[key]*series{}
	for side, rs := range runs {
		for _, r := range rs {
			workload := r.Workload
			if r.Trace {
				workload += "+trace"
			}
			for name, v := range r.Metrics {
				if v.Better == "" {
					continue
				}
				k := key{workload, name}
				s := all[k]
				if s == nil {
					s = &series{unit: v.Unit, better: v.Better, bound: v.Bound,
						bySeed: [2]map[uint64][]float64{{}, {}}}
					all[k] = s
				}
				s.values[side] = append(s.values[side], v.Value)
				s.bySeed[side][r.Seed] = append(s.bySeed[side][r.Seed], v.Value)
			}
		}
	}

	var rows []Row
	for k, s := range all {
		if len(s.values[0]) == 0 || len(s.values[1]) == 0 {
			continue
		}
		var pairs [][2]float64
		for seed, ps := range s.bySeed[0] {
			cs := s.bySeed[1][seed]
			for i := 0; i < len(ps) && i < len(cs); i++ {
				pairs = append(pairs, [2]float64{ps[i], cs[i]})
			}
		}
		row, err := Judge(s.values[0], s.values[1], pairs, s.better, s.bound)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", k.workload, k.metric, err)
		}
		row.Workload, row.Metric, row.Unit = k.workload, k.metric, s.unit
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows, nil
}
