package main

import (
	"strings"

	"repro/bench/result"
	"repro/internal/obs"
)

// metricSpec is one metric as BENCHMARK.json declares it; the test
// TestBenchmarkJSONMatches keeps the two in step.
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Throughput is a per-layer metric and the sweepd latencies
// are details instead: across ten seeded runs on a shared 2-vCPU host
// they did not repeat within 0.10 (README.md gives the spreads). A
// latency that only sweepd-mixed has would read a constant 0 as a
// per-layer metric on the other three workloads. setup_s cannot be demoted —
// every benchmark of this repository reports its set-up time — so it
// carries the widest bound a metric may have, 0.25; README.md shows
// why 0.10 would fail on an unchanged commit.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// perLayer are the metrics every traced run reports, on every workload
// (zero where the workload does not exercise the layer). Layer times
// are shares of the workload's capacity — wall time × concurrent jobs
// — so they read the same way on every workload and sum, with
// unattributed_share, to one. Counts are per operation: per repetition
// on the batch workloads, per submitted grid (service counters), cold
// grid (engine counters) or request (allocation) on sweepd-mixed.
var perLayer = []metricSpec{
	{"scenarios_per_s", "1/s", "higher", 0},
	{"node_rounds_per_s", "1/s", "higher", 0},
	{"sweep.batch.schedule_wait_share", "share", "lower", 0},
	{"sweep.batch.lanes_per_group", "lanes", "higher", 0},
	{"sweep.store.hit_ratio", "ratio", "higher", 0},
	{"sweep.exec.build_share", "share", "lower", 0},
	{"sweep.exec.run_share", "share", "lower", 0},
	{"sweep.graph.bytes", "bytes", "lower", 0},
	{"sim.cache.graph_hit_ratio", "ratio", "higher", 0},
	{"sim.cache.code_hit_ratio", "ratio", "higher", 0},
	{"core.phase.collect_share", "share", "lower", 0},
	{"core.phase.radio1_share", "share", "lower", 0},
	{"core.phase.radio2_share", "share", "lower", 0},
	{"core.phase.decode_share", "share", "lower", 0},
	{"core.decode.members", "count", "lower", 0},
	{"core.decode.solo_filtered_ratio", "ratio", "lower", 0},
	{"core.decode.fallback_bits", "count", "lower", 0},
	{"tdma.phase.encode_share", "share", "lower", 0},
	{"tdma.phase.radio_share", "share", "lower", 0},
	{"tdma.phase.decode_share", "share", "lower", 0},
	{"tdma.sliced.lane_rounds", "count", "lower", 0},
	{"tdma.sliced.occupancy_mean", "lanes", "lower", 0},
	{"tdma.sliced.retired_early", "count", "higher", 0},
	{"beep.window_share", "share", "lower", 0},
	{"beep.rounds", "count", "lower", 0},
	{"beep.frontier.peak", "nodes", "lower", 0},
	{"noise.flips_per_node_round", "ratio", "lower", 0},
	{"pool.do", "count", "lower", 0},
	{"pool.spans", "count", "lower", 0},
	{"pool.do_wait_share", "share", "lower", 0},
	{"sweep.service.executions", "count", "lower", 0},
	{"sweep.service.store_hits", "count", "higher", 0},
	{"sweep.service.singleflight_hits", "count", "higher", 0},
	{"sweep.service.queue_depth_max", "count", "lower", 0},
	{"http.records_get_share", "share", "lower", 0},
	{"http.grids_post_share", "share", "lower", 0},
	{"http.job_events_share", "share", "lower", 0},
	{"http.records_scan_share", "share", "lower", 0},
	{"process.alloc_bytes", "bytes", "lower", 0},
	{"unattributed_share", "share", "lower", 0},
	{"trace.overhead", "share", "lower", 0},
}

// snapshot is an obs registry snapshot keyed by metric name.
type snapshot map[string]obs.Metric

func snap(ms []obs.Metric) snapshot {
	s := make(snapshot, len(ms))
	for _, m := range ms {
		s[m.Name] = m
	}
	return s
}

// add accumulates o into s: counts and sums add, gauges keep the
// larger level.
func (s snapshot) add(o snapshot) {
	for name, m := range o {
		cur, ok := s[name]
		if !ok {
			s[name] = m
			continue
		}
		if m.Kind == "gauge" {
			cur.Value = max(cur.Value, m.Value)
		} else {
			cur.Value += m.Value
			cur.Count += m.Count
			cur.Sum += m.Sum
		}
		s[name] = cur
	}
}

// since returns the change from before to s of a cumulative registry
// (a long-lived process's); gauges keep their current level.
func (s snapshot) since(before snapshot) snapshot {
	d := make(snapshot, len(s))
	for name, m := range s {
		if b, ok := before[name]; ok && m.Kind != "gauge" {
			m.Value -= b.Value
			m.Count -= b.Count
			m.Sum -= b.Sum
		}
		d[name] = m
	}
	return d
}

// val is a counter, gauge or func value; secs a timer's total seconds.
func (s snapshot) val(name string) float64  { return float64(s[name].Value) }
func (s snapshot) secs(name string) float64 { return float64(s[name].Sum) / 1e9 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseTimers are the engine phase timers: the leaves of the layer
// tree under sweep.exec.run. beep.window and pool.do_wait run inside
// them (and inside untimed engine code), so they are reported beside
// the tree, not in it.
var phaseTimers = []string{
	"core.phase.collect", "core.phase.radio1", "core.phase.radio2", "core.phase.decode",
	"tdma.phase.encode", "tdma.phase.radio", "tdma.phase.decode",
}

// engineLayers derives the execution-layer metrics and table rows from
// the registry snapshot s of some work: capacity is its wall time ×
// concurrent jobs in seconds, ops the operations it covers, and
// nodeRounds Σ n·beep_rounds over the records it produced.
func engineLayers(s snapshot, capacity, ops, nodeRounds float64, m map[string]float64) []result.Layer {
	build, run := s.secs("sweep.exec.build_nanos"), s.secs("sweep.exec.run_nanos")
	var phases float64
	for _, p := range phaseTimers {
		t := s.secs(p + "_nanos")
		phases += t
		m[p+"_share"] = ratio(t, capacity)
	}
	m["sweep.exec.build_share"] = ratio(build, capacity)
	m["sweep.exec.run_share"] = ratio(run, capacity)
	m["sweep.graph.bytes"] = s.val("sweep.graph.bytes")
	m["sim.cache.graph_hit_ratio"] = ratio(s.val("sim.cache.graph_hits"), s.val("sim.cache.graph_hits")+s.val("sim.cache.graph_misses"))
	m["sim.cache.code_hit_ratio"] = ratio(s.val("sim.cache.code_hits"), s.val("sim.cache.code_hits")+s.val("sim.cache.code_misses"))
	m["core.decode.members"] = ratio(s.val("core.decode.members"), ops)
	m["core.decode.solo_filtered_ratio"] = ratio(s.val("core.decode.solo_filtered"), s.val("core.decode.members"))
	m["core.decode.fallback_bits"] = ratio(s.val("core.decode.fallback_bits"), ops)
	m["tdma.sliced.lane_rounds"] = ratio(s.val("tdma.sliced.lane_rounds"), ops)
	occ := s["tdma.sliced.occupancy"]
	m["tdma.sliced.occupancy_mean"] = ratio(float64(occ.Sum), float64(occ.Count))
	m["tdma.sliced.retired_early"] = ratio(s.val("tdma.sliced.retired_early"), ops)
	m["beep.window_share"] = ratio(s.secs("beep.window_nanos"), capacity)
	m["beep.rounds"] = ratio(s.val("beep.rounds"), ops)
	m["beep.frontier.peak"] = s.val("beep.frontier.peak")
	var flips float64
	for name := range s {
		if strings.HasPrefix(name, "noise.flips.") {
			flips += s.val(name)
		}
	}
	m["noise.flips_per_node_round"] = ratio(flips, nodeRounds)
	m["pool.do"] = ratio(s.val("pool.do"), ops)
	m["pool.spans"] = ratio(s.val("pool.spans"), ops)
	m["pool.do_wait_share"] = ratio(s.secs("pool.do_wait_nanos"), capacity)
	m["unattributed_share"] = min(max(1-ratio(build+phases, capacity), 0), 1)

	rows := []result.Layer{
		{Name: "capacity", TotalS: capacity, SelfS: capacity - build - run},
		{Name: "sweep.exec.build", Parent: "capacity", TotalS: build, SelfS: build},
		{Name: "sweep.exec.run", Parent: "capacity", TotalS: run, SelfS: run - phases},
	}
	for _, p := range phaseTimers {
		if t := s.secs(p + "_nanos"); t > 0 {
			rows = append(rows, result.Layer{Name: p, Parent: "sweep.exec.run", TotalS: t, SelfS: t})
		}
	}
	for _, n := range []string{"beep.window", "pool.do_wait"} {
		if t := s.secs(n + "_nanos"); t > 0 {
			rows = append(rows, result.Layer{Name: n, Parent: "(inside the phases)", TotalS: t, SelfS: t})
		}
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].SelfS, capacity)
	}
	return rows
}

// layerMetrics completes m to exactly the per-layer metric set,
// zero-filling layers the workload did not exercise.
func layerMetrics(m map[string]float64) map[string]result.Value {
	out := make(map[string]result.Value, len(perLayer))
	for _, spec := range perLayer {
		out[spec.Name] = result.Value{Value: m[spec.Name], Unit: spec.Unit, Better: spec.Better}
	}
	return out
}
