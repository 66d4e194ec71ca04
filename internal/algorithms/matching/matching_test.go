package matching

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func outputsToInts(t *testing.T, outs []any) []int {
	t.Helper()
	res := make([]int, len(outs))
	for i, o := range outs {
		v, ok := o.(int)
		if !ok {
			t.Fatalf("output %d has type %T", i, o)
		}
		res[i] = v
	}
	return res
}

func runNative(t *testing.T, g *graph.Graph, seed uint64) []int {
	t.Helper()
	e, err := congest.NewBroadcastEngine(g, MsgBits(g.N()), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(New(g.N()), MaxRounds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatalf("matching did not terminate in %d rounds", MaxRounds(g.N()))
	}
	return outputsToInts(t, res.Outputs)
}

func TestNativeMatchingOnFixedGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "single edge", g: graph.Path(2)},
		{name: "path", g: graph.Path(9)},
		{name: "cycle", g: graph.Cycle(10)},
		{name: "star", g: graph.Star(8)},
		{name: "complete", g: graph.Complete(9)},
		{name: "bipartite", g: graph.CompleteBipartite(5, 7)},
		{name: "grid", g: graph.Grid(4, 6)},
		{name: "disconnected", g: graph.MustFromEdges(6, [][2]int{{0, 1}, {2, 3}})},
		{name: "isolated only", g: graph.MustFromEdges(4, nil)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := runNative(t, tt.g, 31)
			if err := Verify(tt.g, out); err != nil {
				t.Fatalf("invalid matching: %v (outputs %v)", err, out)
			}
		})
	}
}

func TestNativeMatchingOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := graph.RandomBoundedDegree(60, 6, 0.1, rng.New(seed))
		out := runNative(t, g, seed+100)
		if err := Verify(g, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMatchingRoundsScaleLogarithmically(t *testing.T) {
	// Lemma 20: O(log n) iterations w.h.p. Check that rounds stay within
	// the 4·(4·log₂n+8)+1 budget across sizes (the budget itself scales
	// logarithmically, so success here is the scaling claim).
	for _, n := range []int{32, 128, 512} {
		g := graph.RandomBoundedDegree(n, 8, 0.05, rng.New(uint64(n)))
		e, err := congest.NewBroadcastEngine(g, MsgBits(n), 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(New(n), MaxRounds(n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDone {
			t.Errorf("n=%d: did not finish within O(log n) budget %d", n, MaxRounds(n))
		}
		if err := Verify(g, outputsToInts(t, res.Outputs)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestMatchingOverNoisyBeeps is Theorem 21 end to end: Algorithm 3 under
// the Algorithm 1 simulation on a noisy channel produces a valid maximal
// matching.
func TestMatchingOverNoisyBeeps(t *testing.T) {
	g := graph.RandomBoundedDegree(20, 4, 0.2, rng.New(3))
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), MsgBits(g.N()), 0.1),
		ChannelSeed: 41,
		AlgSeed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(New(g.N()), MaxRounds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("did not terminate over beeps")
	}
	if res.MessageErrors != 0 {
		t.Errorf("decode errors: %d", res.MessageErrors)
	}
	if err := Verify(g, outputsToInts(t, res.Outputs)); err != nil {
		t.Fatalf("invalid matching over noisy beeps: %v", err)
	}
}

// TestMatchingNativeVsSimulated verifies the simulation theorem at the
// output level for this algorithm: identical seeds give identical
// matchings natively and over beeps.
func TestMatchingNativeVsSimulated(t *testing.T) {
	g := graph.RandomBoundedDegree(16, 4, 0.25, rng.New(5))
	const seed = 77
	native := runNative(t, g, seed)

	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), MsgBits(g.N()), 0.05),
		ChannelSeed: 6,
		AlgSeed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(New(g.N()), MaxRounds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageErrors != 0 {
		t.Fatalf("decode errors: %d — outputs not comparable", res.MessageErrors)
	}
	sim := outputsToInts(t, res.Outputs)
	for v := range native {
		if native[v] != sim[v] {
			t.Errorf("node %d: native partner %d, simulated %d", v, native[v], sim[v])
		}
	}
}

func TestVerifyRejectsBadMatchings(t *testing.T) {
	g := graph.Path(4) // edges 0-1, 1-2, 2-3
	tests := []struct {
		name string
		out  []int
	}{
		{name: "wrong length", out: []int{Unmatched}},
		{name: "not maximal", out: []int{Unmatched, Unmatched, Unmatched, Unmatched}},
		{name: "asymmetric", out: []int{1, Unmatched, Unmatched, 2}},
		{name: "non-edge pair", out: []int{2, Unmatched, 0, Unmatched}},
		{name: "partner out of range", out: []int{7, Unmatched, 3, 2}},
		{name: "middle edge only is fine but ends unmatched asym", out: []int{1, 0, 3, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Verify(g, tt.out); err == nil {
				t.Error("invalid matching accepted")
			}
		})
	}
	if err := Verify(g, []int{1, 0, 3, 2}); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
	if err := Verify(g, []int{Unmatched, 2, 1, Unmatched}); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
}

func TestCentralizedLuby(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.RandomBoundedDegree(80, 7, 0.08, rng.New(seed))
		out, iters := CentralizedLuby(g, rng.New(seed+50), 100)
		if err := Verify(g, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if iters > 40 {
			t.Errorf("seed %d: Luby took %d iterations", seed, iters)
		}
	}
}

func TestCentralizedLubyHalvesEdges(t *testing.T) {
	// Lemma 19: each iteration removes at least half the edges in
	// expectation. With 200+ edges a single iteration removing < 20% would
	// be a gross violation.
	g := graph.RandomBoundedDegree(100, 8, 0.1, rng.New(9))
	out := make([]int, g.N())
	for v := range out {
		out[v] = Unmatched
	}
	before := g.M()
	outs, _ := CentralizedLuby(g, rng.New(10), 1)
	removed := 0
	for _, e := range g.Edges() {
		if outs[e[0]] != Unmatched || outs[e[1]] != Unmatched {
			removed++
		}
	}
	if float64(removed) < 0.2*float64(before) {
		t.Errorf("one Luby iteration removed %d/%d edges, expected ≈ half", removed, before)
	}
}

func TestGreedy(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.RandomBoundedDegree(50, 5, 0.15, rng.New(seed))
		if err := Verify(g, Greedy(g)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMsgBitsAndMaxRounds(t *testing.T) {
	if MsgBits(128) != 2+2*7+valueBits {
		t.Errorf("MsgBits(128) = %d", MsgBits(128))
	}
	if MaxRounds(128) <= 0 {
		t.Error("MaxRounds must be positive")
	}
}

// CentralizedLuby runs Algorithm 2 (Luby's algorithm on edges) directly on
// g: each surviving edge samples a value, local minima join the matching,
// and matched endpoints drop out. It returns outputs in the same format as
// the distributed algorithm and the number of iterations used.
func CentralizedLuby(g *graph.Graph, r *rng.Stream, maxIters int) ([]int, int) {
	out := make([]int, g.N())
	for v := range out {
		out[v] = Unmatched
	}
	aliveEdges := g.Edges()
	iters := 0
	for len(aliveEdges) > 0 && iters < maxIters {
		iters++
		vals := make(map[edge]uint64, len(aliveEdges))
		for _, e := range aliveEdges {
			vals[mkEdge(e[0], e[1])] = r.Uint64() & (1<<valueBits - 1)
		}
		matchedNow := make(map[int]bool)
		for _, epair := range aliveEdges {
			e := mkEdge(epair[0], epair[1])
			p := proposal{e: e, val: vals[e]}
			isMin := true
			for _, fpair := range aliveEdges {
				f := mkEdge(fpair[0], fpair[1])
				if f == e || (f.lo != e.lo && f.lo != e.hi && f.hi != e.lo && f.hi != e.hi) {
					continue
				}
				if (proposal{e: f, val: vals[f]}).less(p) {
					isMin = false
					break
				}
			}
			if isMin && !matchedNow[e.lo] && !matchedNow[e.hi] {
				out[e.lo], out[e.hi] = e.hi, e.lo
				matchedNow[e.lo], matchedNow[e.hi] = true, true
			}
		}
		var next [][2]int
		for _, e := range aliveEdges {
			if out[e[0]] == Unmatched && out[e[1]] == Unmatched {
				next = append(next, e)
			}
		}
		aliveEdges = next
	}
	return out, iters
}

// Greedy returns a simple sequential maximal matching, the baseline
// verifier oracle.
func Greedy(g *graph.Graph) []int {
	out := make([]int, g.N())
	for v := range out {
		out[v] = Unmatched
	}
	for _, e := range g.Edges() {
		if out[e[0]] == Unmatched && out[e[1]] == Unmatched {
			out[e[0]], out[e[1]] = e[1], e[0]
		}
	}
	return out
}
