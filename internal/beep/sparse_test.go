package beep

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// outcome is one run's Result with its programs' outputs, read after
// the run.
type outcome struct {
	*Result
	Outputs []any
}

// outputs reads every program's result after a run: the flood
// primitives' typed accessors, and the test programs' Output.
func outputs(progs []Program) []any {
	out := make([]any, len(progs))
	for v, p := range progs {
		switch p := p.(type) {
		case *AlarmFlood:
			out[v] = p.RelayRound()
		case *RobustFlood:
			out[v] = p.ActivationFrame()
		case interface{ Output() any }:
			out[v] = p.Output()
		}
	}
	return out
}

// runPair executes the same program construction on two fresh networks with
// identical parameters — once through the dense driver, once through the
// sparse one — and returns both outcomes plus the network counters.
func runPair(t *testing.T, g *graph.Graph, params Params, budget int,
	mk func() []Program) (dense, sparse outcome, denseNW, sparseNW *Network) {
	t.Helper()
	var err error
	denseNW, err = NewNetwork(g, params)
	if err != nil {
		t.Fatal(err)
	}
	sparseNW, err = NewNetwork(g, params)
	if err != nil {
		t.Fatal(err)
	}
	dp, sp := mk(), mk()
	dr, err := denseNW.Run(PerNode(dp), budget)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sparseNW.RunSparse(PerNode(sp), budget)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{dr, outputs(dp)}, outcome{sr, outputs(sp)}, denseNW, sparseNW
}

// assertIdentical checks the full observable surface: Result shape, decoded
// outputs, the network round counter, and the energy total.
func assertIdentical(t *testing.T, label string, dense, sparse outcome, denseNW, sparseNW *Network) {
	t.Helper()
	if dense.Rounds != sparse.Rounds || dense.AllDone != sparse.AllDone {
		t.Fatalf("%s: result shape differs: dense rounds=%d allDone=%v, sparse rounds=%d allDone=%v",
			label, dense.Rounds, dense.AllDone, sparse.Rounds, sparse.AllDone)
	}
	if denseNW.Round() != sparseNW.Round() {
		t.Fatalf("%s: network round counter differs: %d vs %d", label, denseNW.Round(), sparseNW.Round())
	}
	if denseNW.TotalBeeps() != sparseNW.TotalBeeps() {
		t.Fatalf("%s: TotalBeeps differs: %d vs %d", label, denseNW.TotalBeeps(), sparseNW.TotalBeeps())
	}
	if len(dense.Outputs) != len(sparse.Outputs) {
		t.Fatalf("%s: output count differs: %d vs %d", label, len(dense.Outputs), len(sparse.Outputs))
	}
	for v := range dense.Outputs {
		dv, sv := dense.Outputs[v], sparse.Outputs[v]
		if db, ok := dv.(*bitstring.BitString); ok {
			if !db.Equal(sv.(*bitstring.BitString)) {
				t.Fatalf("%s: node %d heard bits differ", label, v)
			}
			continue
		}
		if !reflect.DeepEqual(dv, sv) {
			t.Fatalf("%s: node %d output differs: %v vs %v", label, v, dv, sv)
		}
	}
}

// TestSparseMatchesDenseAlarmFlood pins RunSparse to the dense driver on the
// purely reactive wave primitive across graph shapes, worker counts, and a
// disconnected instance (which exercises the fast-forward-to-budget path
// after the wave dies out).
func TestSparseMatchesDenseAlarmFlood(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(60),
		"cycle":    graph.Cycle(50),
		"star":     graph.Star(33),
		"grid":     graph.Grid(7, 9),
		"cube":     graph.Hypercube(6),
		"bounded":  graph.RandomBoundedDegree(200, 6, 0.05, rng.New(11)),
		"split":    graph.MustFromEdges(10, [][2]int{{0, 1}, {1, 2}, {2, 3}, {5, 6}, {6, 7}, {8, 9}}),
		"isolated": graph.MustFromEdges(5, [][2]int{{0, 1}}),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 4, engine.AutoWorkers} {
			mk := func() []Program {
				progs := make([]Program, g.N())
				for v := range progs {
					progs[v] = &AlarmFlood{Source: v == 0}
				}
				return progs
			}
			budget := g.N() + 2
			dense, sparse, dnw, snw := runPair(t, g,
				Params{Seed: 3, Workers: workers}, budget, mk)
			assertIdentical(t, name, dense, sparse, dnw, snw)
		}
	}
}

// TestPropertySparseMatchesDenseTransmitters is the randomized equivalence
// property (same idiom as TestRunSerialParallelIdentical): random bounded
// -degree graphs, random sparse beep patterns, random pool configurations —
// the sparse driver must reproduce the dense reception transcript bit for
// bit, plus round and energy counters.
func TestPropertySparseMatchesDenseTransmitters(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rng.New(uint64(1000 + trial))
		n := 20 + r.Intn(130)
		deg := 3 + r.Intn(5)
		g := graph.RandomBoundedDegree(n, deg, 0.02+r.Float64()*0.08, r.Split(1))
		horizon := 16 + r.Intn(48)
		density := 0.01 + r.Float64()*0.09
		pr := r.Split(2)
		patterns := make([]*bitstring.BitString, n)
		for v := range patterns {
			if pr.Bool(0.4) {
				continue // silent node: nil pattern
			}
			p := bitstring.New(horizon)
			for i := 0; i < horizon; i++ {
				if pr.Bool(density) {
					p.Set(i)
				}
			}
			patterns[v] = p
		}
		workers := []int{1, 2, 4, engine.AutoWorkers}[r.Intn(4)]
		mk := func() []Program {
			progs := make([]Program, n)
			for v := range progs {
				progs[v] = &Transmitter{Pattern: patterns[v], Rounds: horizon}
			}
			return progs
		}
		dense, sparse, dnw, snw := runPair(t, g,
			Params{Seed: uint64(trial), Workers: workers}, horizon+5, mk)
		assertIdentical(t, fmt.Sprintf("trial %d", trial), dense, sparse, dnw, snw)
		if dense.Rounds != horizon || !dense.AllDone {
			t.Fatalf("trial %d: expected full horizon run, got rounds=%d allDone=%v",
				trial, dense.Rounds, dense.AllDone)
		}
	}
}

// TestSparseTruncatedBudget checks parity when the budget cuts the run off
// mid-wave: partial outputs, AllDone=false, and the round counters must all
// agree.
func TestSparseTruncatedBudget(t *testing.T) {
	g := graph.Path(80)
	mk := func() []Program {
		progs := make([]Program, g.N())
		for v := range progs {
			progs[v] = &AlarmFlood{Source: v == 0}
		}
		return progs
	}
	for _, budget := range []int{0, 1, 10, 40} {
		dense, sparse, dnw, snw := runPair(t, g, Params{Seed: 5}, budget, mk)
		assertIdentical(t, "truncated", dense, sparse, dnw, snw)
		if sparse.AllDone {
			t.Fatalf("budget %d: path flood cannot finish early", budget)
		}
	}
}

// TestSparseFastForward pins the O(1) skip over globally quiet stretches: a
// single transmitter that beeps only near the end of the horizon. The dense
// twin grinds through every silent round; the sparse run must land on the
// same counters and transcript regardless.
func TestSparseFastForward(t *testing.T) {
	g := graph.Path(100)
	const horizon = 60
	pattern := bitstring.New(horizon)
	pattern.Set(50)
	mk := func() []Program {
		progs := make([]Program, g.N())
		for v := range progs {
			var p *bitstring.BitString
			if v == 0 {
				p = pattern
			}
			progs[v] = &Transmitter{Pattern: p, Rounds: horizon}
		}
		return progs
	}
	dense, sparse, dnw, snw := runPair(t, g, Params{Seed: 9}, horizon, mk)
	assertIdentical(t, "fast-forward", dense, sparse, dnw, snw)
	if snw.Round() != horizon {
		t.Fatalf("round counter %d, want %d (skipped rounds must still count)", snw.Round(), horizon)
	}
	// Node 1 heard the lone beep, node 2 (not adjacent to the source) did not.
	if !sparse.Outputs[1].(*bitstring.BitString).Get(50) {
		t.Fatal("neighbor missed the beep at round 50")
	}
	if sparse.Outputs[2].(*bitstring.BitString).Ones() != 0 {
		t.Fatal("non-neighbor heard a phantom beep")
	}
}

// TestSparseFallbacks verifies two dense-fallback triggers, a noisy
// channel and a beep transcript request, and a per-node program that is
// not a QuietProgram, which PerNode drives every round. Each must behave
// exactly like Run (same seed ⇒ byte-identical, including the noise
// draws).
func TestSparseFallbacks(t *testing.T) {
	g := graph.RandomBoundedDegree(120, 5, 0.05, rng.New(42))
	mkFlood := func() []Program {
		progs := make([]Program, g.N())
		for v := range progs {
			progs[v] = &AlarmFlood{Source: v == 0}
		}
		return progs
	}

	t.Run("noisy", func(t *testing.T) {
		dense, sparse, dnw, snw := runPair(t, g,
			Params{Seed: 17, Epsilon: 0.2}, g.N()+2, mkFlood)
		assertIdentical(t, "noisy", dense, sparse, dnw, snw)
	})

	t.Run("record-beeps", func(t *testing.T) {
		dense, sparse, dnw, snw := runPair(t, g,
			Params{Seed: 17, RecordBeeps: true}, g.N()+2, mkFlood)
		assertIdentical(t, "record", dense, sparse, dnw, snw)
		dh, sh := dnw.BeepHistory(), snw.BeepHistory()
		if len(sh) == 0 || len(dh) != len(sh) {
			t.Fatalf("history length %d vs %d (fallback must record)", len(dh), len(sh))
		}
		for i := range dh {
			if !dh[i].Equal(sh[i]) {
				t.Fatalf("beep transcript differs at round %d", i)
			}
		}
	})

	t.Run("non-quiet-program", func(t *testing.T) {
		mk := func() []Program {
			progs := make([]Program, g.N())
			for v := range progs {
				progs[v] = &RobustFlood{Source: v == 0, FrameLen: 8}
			}
			return progs
		}
		dense, sparse, dnw, snw := runPair(t, g, Params{Seed: 23}, 200, mk)
		assertIdentical(t, "robust", dense, sparse, dnw, snw)
	})
}

// TestSparseNonQuietSetRunsDense: a ProgramSet that is not a QuietSet
// falls back to the dense driver, which reports no frontier gauge, and
// its run is the dense run's.
func TestSparseNonQuietSetRunsDense(t *testing.T) {
	g := graph.Path(40)
	reg := obs.NewRegistry()
	nw, err := NewNetwork(g, Params{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = &AlarmFlood{Source: v == 0}
	}
	plain := struct{ ProgramSet }{PerNode(progs)} // hides NextWake
	res, err := nw.RunSparse(plain, g.N()+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || res.Rounds != g.N() {
		t.Fatalf("rounds=%d allDone=%v, want %d and true", res.Rounds, res.AllDone, g.N())
	}
	if peak := reg.Gauge("beep.frontier.peak").Value(); peak != 0 {
		t.Fatalf("frontier gauge %d: a set without NextWake ran on the sparse driver", peak)
	}
	for v, p := range progs {
		if got := p.(*AlarmFlood).RelayRound(); got != v {
			t.Fatalf("node %d relayed at round %d, want %d", v, got, v)
		}
	}
}

// TestSparseFrontierGauge checks that a sparse run reports its peak frontier
// occupancy, and that it is genuinely sub-linear on a long path (the wave
// front is O(1) nodes wide).
func TestSparseFrontierGauge(t *testing.T) {
	g := graph.Path(512)
	reg := obs.NewRegistry()
	nw, err := NewNetwork(g, Params{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = &AlarmFlood{Source: v == 0}
	}
	if _, err := nw.RunSparse(PerNode(progs), g.N()+2); err != nil {
		t.Fatal(err)
	}
	peak := reg.Gauge("beep.frontier.peak").Value()
	if peak < 1 || peak > 8 {
		t.Fatalf("peak frontier %d on a path; want a handful of nodes, not Θ(n)", peak)
	}
}

// wanderer is a QuietProgram built to stress RunSparse's wake schedule.
// Every second beep it hears steps its declared wake round through
// base+8, base+4, base+8, base+2: a repeat, a move to an earlier fresh
// round B, back to A (A→B→A), a repeat, and another earlier fresh round.
// After each alarm it jumps 3·bits+2 rounds ahead, and after its second
// alarm it either finishes or turns purely reactive (NoWake). An alarm
// the declaration moved into the past fires at the next drive. Its
// output logs every beep it sends (r) and hears (−r−1).
type wanderer struct {
	bits   int
	finish bool
	base   int // the current phase's alarms are offsets from base
	heard  int // beeps heard this phase
	alarms int
	sent   int // round of the last own beep
	done   bool
	log    []int
}

func (w *wanderer) Init(env Env) {
	w.base = env.ID % 5
	w.finish = env.ID%3 == 0
	w.sent = -1
}

func (w *wanderer) alarm() int {
	return w.base + [...]int{8, 4, 8, 2}[(w.heard/2)%4]
}

func (w *wanderer) Step(round int) Action {
	if w.alarms < 2 && round >= w.alarm() {
		w.alarms++
		w.base = round + 3*w.bits + 2
		w.heard = 0
		w.sent = round
		w.log = append(w.log, round)
		return Beep
	}
	return Listen
}

func (w *wanderer) Hear(round int, bit bool) {
	if bit && round != w.sent {
		w.heard++
		w.log = append(w.log, -round-1)
	}
	if w.finish && w.alarms == 2 && round == w.sent {
		w.done = true
	}
}

func (w *wanderer) Done() bool  { return w.done }
func (w *wanderer) Output() any { return append([]int(nil), w.log...) }

func (w *wanderer) NextWake(round int) int {
	if w.done || w.alarms == 2 {
		return NoWake
	}
	if a := w.alarm(); a > round {
		return a
	}
	return round + 1
}

// TestSparseMatchesDenseWanderingWakes pins RunSparse to Run for programs
// whose declared wake round moves back and forth, repeats, jumps far
// ahead and ends in NoWake: the per-node beep/hear transcripts, Result,
// round counter and energy must match at 1 and 4 workers. It guards the
// schedule's one-pending-wake rule, under which each declaration
// replaces the node's pending wake: a wake the schedule drops that the
// node's latest declaration still needs changes some node's transcript.
func TestSparseMatchesDenseWanderingWakes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":    graph.Path(70),
		"grid":    graph.Grid(12, 13),
		"bounded": graph.RandomBoundedDegree(300, 8, 0.05, rng.New(31)),
		"split":   graph.MustFromEdges(9, [][2]int{{0, 1}, {1, 2}, {4, 5}, {6, 7}}),
	}
	for name, g := range graphs {
		for _, bits := range []int{1, 8} {
			for _, workers := range []int{1, 4} {
				mk := func() []Program {
					progs := make([]Program, g.N())
					for v := range progs {
						progs[v] = &wanderer{bits: bits}
					}
					return progs
				}
				label := fmt.Sprintf("%s bits=%d workers=%d", name, bits, workers)
				dense, sparse, dnw, snw := runPair(t, g, Params{Seed: 2, Workers: workers}, 6*bits+40, mk)
				assertIdentical(t, label, dense, sparse, dnw, snw)
				if dnw.TotalBeeps() == 0 {
					t.Fatalf("%s: no node ever beeped", label)
				}
			}
		}
	}
}
