package coloring

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

func outputsToInts(t *testing.T, outs []any) []int {
	t.Helper()
	res := make([]int, len(outs))
	for i, o := range outs {
		c, ok := o.(int)
		if !ok {
			t.Fatalf("output %d has type %T", i, o)
		}
		res[i] = c
	}
	return res
}

func TestNativeColoring(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "path", g: graph.Path(10)},
		{name: "cycle odd", g: graph.Cycle(9)},
		{name: "complete", g: graph.Complete(7)},
		{name: "star", g: graph.Star(9)},
		{name: "random", g: graph.RandomBoundedDegree(70, 6, 0.1, rng.New(1))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := congest.NewBroadcastEngine(tt.g, MsgBits(tt.g.N(), tt.g.MaxDegree()), 4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(New(tt.g.N()), MaxRounds(tt.g.N()))
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDone {
				t.Fatal("coloring did not terminate")
			}
			if err := Verify(tt.g, outputsToInts(t, res.Outputs)); err != nil {
				t.Fatalf("invalid coloring: %v", err)
			}
		})
	}
}

func TestColoringCompleteUsesAllColors(t *testing.T) {
	// K_{Δ+1} forces all Δ+1 colors.
	g := graph.Complete(6)
	e, _ := congest.NewBroadcastEngine(g, MsgBits(6, 5), 9)
	res, err := e.Run(New(6), MaxRounds(6))
	if err != nil {
		t.Fatal(err)
	}
	colors := outputsToInts(t, res.Outputs)
	seen := make(map[int]bool)
	for _, c := range colors {
		seen[c] = true
	}
	if len(seen) != 6 {
		t.Errorf("K6 colored with %d distinct colors, want 6", len(seen))
	}
}

func TestColoringOverNoisyBeeps(t *testing.T) {
	g := graph.RandomBoundedDegree(16, 4, 0.2, rng.New(2))
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), MsgBits(g.N(), g.MaxDegree()), 0.1),
		ChannelSeed: 10,
		AlgSeed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(New(g.N()), MaxRounds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("coloring over beeps did not terminate")
	}
	if err := Verify(g, outputsToInts(t, res.Outputs)); err != nil {
		t.Fatalf("invalid coloring over noisy beeps: %v", err)
	}
}

func TestVerifyRejectsBadColorings(t *testing.T) {
	g := graph.Path(4) // Δ = 2, colors in [0,2]
	tests := []struct {
		name   string
		colors []int
	}{
		{name: "monochromatic edge", colors: []int{0, 0, 1, 2}},
		{name: "color out of range", colors: []int{0, 1, 2, 5}},
		{name: "negative color", colors: []int{0, 1, 0, -1}},
		{name: "wrong length", colors: []int{0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Verify(g, tt.colors); err == nil {
				t.Error("invalid coloring accepted")
			}
		})
	}
	if err := Verify(g, []int{0, 1, 0, 1}); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
}

// TestEmptyPaletteSitsOut drives one node whose palette phantom decoded
// neighbours have emptied, as a noisy channel can: its try rounds send
// nothing, draw no randomness and keep no colour, where sampling the
// empty palette used to panic the process.
func TestEmptyPaletteSitsOut(t *testing.T) {
	const n, maxDeg = 8, 2
	env := congest.Env{ID: 3, N: n, Degree: maxDeg, MaxDegree: maxDeg, MsgBits: MsgBits(n, maxDeg), Rng: rng.New(5)}
	a := &Algorithm{}
	a.Init(env)
	final := func(id, color int) congest.Message {
		var w wire.Writer
		w.WriteBool(true)
		w.WriteUint(uint64(id), wire.BitsFor(n))
		w.WriteUint(uint64(color), wire.BitsFor(maxDeg+1))
		return w.PaddedBytes(env.MsgBits)
	}
	// One announce round claims all Δ+1 colours.
	a.Receive(1, []congest.Message{final(0, 0), final(1, 1), final(2, 2)})
	before := *env.Rng
	for round := 2; round < 8; round++ {
		if msg := a.Broadcast(round); msg != nil {
			t.Fatalf("round %d: node with an empty palette sent %x", round, msg)
		}
		a.Receive(round, nil)
	}
	if *env.Rng != before {
		t.Error("a node with an empty palette drew randomness")
	}
	if a.Done() || a.Output() != -1 {
		t.Errorf("Done = %v, Output = %v; want an undecided node with colour -1", a.Done(), a.Output())
	}
}
