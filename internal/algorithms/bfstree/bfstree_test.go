package bfstree

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func outputsToResults(t *testing.T, outs []any) []Result {
	t.Helper()
	res := make([]Result, len(outs))
	for i, o := range outs {
		r, ok := o.(Result)
		if !ok {
			t.Fatalf("output %d has type %T", i, o)
		}
		res[i] = r
	}
	return res
}

func TestNativeBFS(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{name: "path from end", g: graph.Path(10), root: 0},
		{name: "path from middle", g: graph.Path(11), root: 5},
		{name: "grid", g: graph.Grid(5, 5), root: 12},
		{name: "hypercube", g: graph.Hypercube(4), root: 3},
		{name: "random", g: graph.RandomBoundedDegree(60, 5, 0.1, rng.New(1)), root: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := congest.NewBroadcastEngine(tt.g, MsgBits(tt.g.N()), 2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(New(tt.g.N(), tt.root), tt.g.N()+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tt.g, tt.root, outputsToResults(t, res.Outputs)); err != nil {
				t.Fatalf("invalid BFS tree: %v", err)
			}
		})
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {1, 2}})
	e, _ := congest.NewBroadcastEngine(g, MsgBits(5), 2)
	res, err := e.Run(New(5, 0), 10)
	if err != nil {
		t.Fatal(err)
	}
	outs := outputsToResults(t, res.Outputs)
	if err := Verify(g, 0, outs); err != nil {
		t.Fatal(err)
	}
	if outs[4].Dist != -1 || outs[4].Parent != -1 {
		t.Errorf("unreachable node output %+v", outs[4])
	}
}

func TestBFSOverNoisyBeeps(t *testing.T) {
	g := graph.Grid(4, 4)
	params := core.DefaultParams(g.N(), g.MaxDegree(), MsgBits(g.N()), 0.1)
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      params,
		ChannelSeed: 12,
		AlgSeed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(New(g.N(), 0), g.N()+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, 0, outputsToResults(t, res.Outputs)); err != nil {
		t.Fatalf("invalid BFS over noisy beeps: %v", err)
	}
	// The BFS wave takes diameter+1 simulated rounds; each costs
	// RoundsPerSimRound beeps — the O(D + something)·Δ·log n shape.
	if res.BeepRounds > (g.Diameter()+2)*params.RoundsPerSimRound() {
		t.Errorf("BFS used %d beep rounds, want ≤ %d",
			res.BeepRounds, (g.Diameter()+2)*params.RoundsPerSimRound())
	}
}

func TestVerifyRejectsBadTrees(t *testing.T) {
	g := graph.Path(4)
	good := []Result{{Dist: 0, Parent: -1}, {Dist: 1, Parent: 0}, {Dist: 2, Parent: 1}, {Dist: 3, Parent: 2}}
	if err := Verify(g, 0, good); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	tests := []struct {
		name string
		out  []Result
	}{
		{name: "wrong dist", out: []Result{{0, -1}, {2, 0}, {2, 1}, {3, 2}}},
		{name: "parent not neighbor", out: []Result{{0, -1}, {1, 0}, {2, 0}, {3, 2}}},
		{name: "parent wrong level", out: []Result{{0, -1}, {1, 0}, {2, 1}, {3, 1}}},
		{name: "wrong length", out: []Result{{0, -1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Verify(g, 0, tt.out); err == nil {
				t.Error("invalid tree accepted")
			}
		})
	}
}
