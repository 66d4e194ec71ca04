package sweep

import (
	"iter"
	"math"
	"sort"
)

// Key identifies an aggregation cell: every Scenario axis except the
// seeds and the replicate index, so records that differ only in
// replicate land in the same cell.
type Key struct {
	Family   string  `json:"family"`
	N        int     `json:"n,omitempty"`
	Param    int     `json:"param,omitempty"`
	Epsilon  float64 `json:"epsilon"`
	Noise    string  `json:"noise,omitempty"`
	Engine   string  `json:"engine"`
	Workload string  `json:"workload"`
	Rounds   int     `json:"rounds,omitempty"`
	MsgBits  int     `json:"msg_bits,omitempty"`
}

// KeyOf projects a scenario onto its aggregation cell.
func KeyOf(sc Scenario) Key {
	return Key{
		Family:   sc.Family,
		N:        sc.N,
		Param:    sc.Param,
		Epsilon:  sc.Epsilon,
		Noise:    sc.Noise,
		Engine:   sc.Engine,
		Workload: sc.Workload,
		Rounds:   sc.Rounds,
		MsgBits:  sc.MsgBits,
	}
}

// Dist summarizes one metric's distribution across a cell's replicates.
type Dist struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
}

// DistOf computes the summary of xs (Dist{} for empty input).
func DistOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Dist{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   Percentile(sorted, 0.5),
		P90:   Percentile(sorted, 0.9),
	}
}

// Percentile returns the p-quantile (p ∈ [0,1]) of an ascending-sorted
// slice, with linear interpolation between adjacent order statistics.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	// Products are rounded explicitly, so no GOARCH fuses them (§4).
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Group is one aggregation cell: the replicate distributions of the
// standard metrics over the records sharing a Key.
type Group struct {
	Key Key `json:"key"`
	// GraphN is the realized graph size of the cell's lowest replicate:
	// the n a derived-size family (Key.N = 0) actually built.
	GraphN int `json:"-"`
	// BeepRounds and PerSimRound are the Theorem 11 axes; Beeps is the
	// A4 energy axis; MsgErr/MemErr are the error-rate axes; WallMS and
	// BuildMS are throughput bookkeeping (the non-deterministic
	// metrics — BuildMS collapses toward zero when the batch artifact
	// cache serves a cell's graphs).
	BeepRounds  Dist `json:"beep_rounds"`
	PerSimRound Dist `json:"per_sim_round"`
	Beeps       Dist `json:"beeps"`
	MsgErr      Dist `json:"msg_err"`
	MemErr      Dist `json:"mem_err"`
	WallMS      Dist `json:"wall_ms"`
	BuildMS     Dist `json:"build_ms"`
}

// cell accumulates one Group's columns: a record is reduced to its
// seven metric values as it arrives, so a cell never holds records.
type cell struct {
	graphN, lowestRep int
	// One column per Group metric, in Group's field order.
	beepRounds, perRound, beeps, msgErr, memErr, wall, build []float64
}

func (c *cell) add(r Record) {
	if len(c.beepRounds) == 0 || r.Spec.Replicate < c.lowestRep {
		c.graphN, c.lowestRep = r.Graph.N, r.Spec.Replicate
	}
	c.beepRounds = append(c.beepRounds, float64(r.Counters.BeepRounds))
	c.perRound = append(c.perRound, float64(r.BeepsPerSimRound()))
	c.beeps = append(c.beeps, float64(r.Counters.Beeps))
	c.msgErr = append(c.msgErr, r.MsgErrRate())
	c.memErr = append(c.memErr, r.MemErrRate())
	c.wall = append(c.wall, float64(r.WallNanos)/1e6)
	c.build = append(c.build, float64(r.BuildNanos)/1e6)
}

// Aggregate groups records by Key and summarizes each cell, ordered by
// (Workload, Family, Engine, N, Param, Epsilon, Rounds, MsgBits) — a
// deterministic presentation order independent of input order. It
// consumes recs one record at a time, keeping only each cell's metric
// columns, so a whole store can be aggregated in a single scan; DistOf
// sorts before it sums, so the summaries do not depend on scan order.
func Aggregate(recs iter.Seq[Record]) []Group {
	cells := make(map[Key]*cell)
	for r := range recs {
		k := KeyOf(r.Spec)
		c := cells[k]
		if c == nil {
			c = &cell{}
			cells[k] = c
		}
		c.add(r)
	}
	keys := make([]Key, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.Workload != b.Workload:
			return a.Workload < b.Workload
		case a.Family != b.Family:
			return a.Family < b.Family
		case a.Engine != b.Engine:
			return a.Engine < b.Engine
		case a.N != b.N:
			return a.N < b.N
		case a.Param != b.Param:
			return a.Param < b.Param
		case a.Epsilon != b.Epsilon:
			return a.Epsilon < b.Epsilon
		case a.Noise != b.Noise:
			return a.Noise < b.Noise
		case a.Rounds != b.Rounds:
			return a.Rounds < b.Rounds
		}
		return a.MsgBits < b.MsgBits
	})

	groups := make([]Group, 0, len(keys))
	for _, k := range keys {
		c := cells[k]
		groups = append(groups, Group{
			Key:         k,
			GraphN:      c.graphN,
			BeepRounds:  DistOf(c.beepRounds),
			PerSimRound: DistOf(c.perRound),
			Beeps:       DistOf(c.beeps),
			MsgErr:      DistOf(c.msgErr),
			MemErr:      DistOf(c.memErr),
			WallMS:      DistOf(c.wall),
			BuildMS:     DistOf(c.build),
		})
	}
	return groups
}
