package beepalgs

import (
	"testing"

	"repro/internal/algorithms/leader"
	"repro/internal/algorithms/mis"
	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

func TestNativeMISOnFixedGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "single edge", g: graph.Path(2)},
		{name: "path", g: graph.Path(12)},
		{name: "cycle", g: graph.Cycle(9)},
		{name: "star", g: graph.Star(10)},
		{name: "complete", g: graph.Complete(12)},
		{name: "grid", g: graph.Grid(4, 5)},
		{name: "edgeless", g: graph.MustFromEdges(5, nil)},
		{name: "random", g: graph.RandomBoundedDegree(60, 6, 0.1, rng.New(1))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inSet, rounds, err := RunMIS(tt.g, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := mis.Verify(tt.g, inSet); err != nil {
				t.Fatalf("invalid MIS after %d rounds: %v", rounds, err)
			}
		})
	}
}

func TestNativeMISRoundsIndependentOfDegree(t *testing.T) {
	// The §7 gap: native beeping MIS cost must not grow linearly in Δ.
	var base int
	for _, delta := range []int{4, 16} {
		g, err := graph.RandomRegular(64, delta, rng.New(uint64(delta)))
		if err != nil {
			t.Fatal(err)
		}
		_, rounds, err := RunMIS(g, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		if delta == 4 {
			base = rounds
			continue
		}
		// Δ grew 4×; rounds must grow far less than 4× (they typically
		// shrink or stay flat).
		if rounds > 3*base {
			t.Errorf("rounds grew from %d (Δ=4) to %d (Δ=16); native MIS should be ≈Δ-independent", base, rounds)
		}
	}
}

func TestNativeMISManySeeds(t *testing.T) {
	g := graph.RandomBoundedDegree(40, 5, 0.12, rng.New(3))
	for seed := uint64(0); seed < 10; seed++ {
		inSet, _, err := RunMIS(g, seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := mis.Verify(g, inSet); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestNativeMISCompleteGraphSingleton(t *testing.T) {
	g := graph.Complete(16)
	inSet, _, err := RunMIS(g, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range inSet {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Errorf("MIS of K16 has %d members, want 1", count)
	}
}

func TestNativeMISBudgetFailureDetected(t *testing.T) {
	// Failure injection: an absurdly small budget must be reported, not
	// silently produce a partial output.
	g := graph.Complete(8)
	nw, err := beep.NewNetwork(g, beep.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(NewMIS(g.N()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDone {
		t.Error("3 rounds cannot complete an MIS phase; AllDone must be false")
	}
}

func TestLeaderElectionFixedGraphs(t *testing.T) {
	tests := []struct {
		name   string
		g      *graph.Graph
		dBound int
	}{
		{name: "path", g: graph.Path(9)},
		{name: "cycle", g: graph.Cycle(10)},
		{name: "star", g: graph.Star(7)},
		{name: "grid", g: graph.Grid(3, 4)},
		{name: "tight diameter bound", g: graph.Path(8), dBound: 8},
		{name: "two components", g: graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})},
		{name: "singletons", g: graph.MustFromEdges(3, nil)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, rounds, err := RunLeaderElection(tt.g, tt.dBound, 5)
			if err != nil {
				t.Fatal(err)
			}
			if want := LeaderRounds(tt.g.N(), tt.dBound); rounds != want {
				t.Errorf("rounds = %d, want exactly %d", rounds, want)
			}
			if err := leader.Verify(tt.g, out); err != nil {
				t.Fatalf("invalid election: %v", err)
			}
		})
	}
}

func TestLeaderElectionDeterministic(t *testing.T) {
	// The protocol is deterministic given the graph: different channel
	// seeds must give identical results in the noiseless model.
	g := graph.Cycle(12)
	a, _, err := RunLeaderElection(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunLeaderElection(g, 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs across channel seeds: %+v vs %+v", v, a[v], b[v])
		}
	}
}

func TestLeaderElectionRoundsFormula(t *testing.T) {
	// O(D log n): with a tight diameter bound the cost is D·log n, far
	// below the n·log n of the default bound on low-diameter graphs.
	g := graph.Grid(4, 8) // n = 32, diameter 10
	d := g.Diameter() + 1
	out, rounds, err := RunLeaderElection(g, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Verify(g, out); err != nil {
		t.Fatal(err)
	}
	if rounds != LeaderRounds(g.N(), d) {
		t.Errorf("rounds = %d, want %d", rounds, LeaderRounds(g.N(), d))
	}
	if rounds >= LeaderRounds(g.N(), 0) {
		t.Errorf("tight bound (%d rounds) not cheaper than default (%d)", rounds, LeaderRounds(g.N(), 0))
	}
}

// waveOutputs runs RunWave and returns each node's decoded message (nil
// where the marker never arrived) and the round count.
func waveOutputs(g *graph.Graph, source int, msg []byte, bits, dBound int, seed uint64, opt WaveOptions) ([][]byte, int, error) {
	res, err := RunWave(g, source, msg, bits, dBound, seed, opt)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]byte, g.N())
	for v := range out {
		out[v] = res.Payload(v)
	}
	return out, res.Rounds, nil
}

// geometric builds the geo family graph at n and seed.
func geometric(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GeometricCells(n, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWaveBroadcastDeliversMessage(t *testing.T) {
	msg := []byte{0xa5, 0x3c} // 16 bits
	tests := []struct {
		name   string
		g      *graph.Graph
		source int
	}{
		{name: "path", g: graph.Path(10), source: 0},
		{name: "path from middle", g: graph.Path(11), source: 5},
		{name: "cycle", g: graph.Cycle(12), source: 3},
		{name: "grid", g: graph.Grid(4, 5), source: 7},
		{name: "star", g: graph.Star(9), source: 0},
		{name: "complete", g: graph.Complete(8), source: 2},
		{name: "hypercube", g: graph.Hypercube(4), source: 9},
		{name: "random", g: geometric(t, 36, 2), source: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, rounds, err := waveOutputs(tt.g, tt.source, msg, 16, tt.g.N(), 4, WaveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := WaveRounds(16, tt.g.N()); rounds != want {
				t.Errorf("rounds = %d, want %d", rounds, want)
			}
			for v := 0; v < tt.g.N(); v++ {
				if !wire.Equal(out[v], msg, 16) {
					t.Errorf("node %d decoded %x, want %x", v, out[v], msg)
				}
			}
		})
	}
}

func TestWaveBroadcastAllZeroAndAllOneMessages(t *testing.T) {
	g := graph.Grid(3, 5)
	for _, msg := range [][]byte{{0x00}, {0xff}} {
		out, _, err := waveOutputs(g, 0, msg, 8, g.N(), 5, WaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if !wire.Equal(out[v], msg, 8) {
				t.Errorf("msg %x: node %d decoded %x", msg, v, out[v])
			}
		}
	}
}

func TestWaveBroadcastTightDiameterBound(t *testing.T) {
	// With a tight diameter bound, the O(D + b) cost beats per-bit
	// flooding's Θ(D·b) decisively.
	g := graph.Grid(5, 5)
	d := g.Diameter() + 1
	const bits = 64
	msg := make([]byte, 8)
	for i := range msg {
		msg[i] = byte(0x5a ^ i)
	}
	out, rounds, err := waveOutputs(g, 0, msg, bits, d, 6, WaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !wire.Equal(out[v], msg, bits) {
			t.Fatalf("node %d decoded %x", v, out[v])
		}
	}
	perBitFlood := bits * (g.Diameter() + 1) // Θ(D·b) naive alternative
	if rounds >= perBitFlood {
		t.Errorf("wave broadcast used %d rounds, not better than per-bit flooding %d", rounds, perBitFlood)
	}
}

func TestWaveBroadcastDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int{{0, 1}})
	out, _, err := waveOutputs(g, 0, []byte{0x7}, 4, g.N(), 7, WaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(out[1], []byte{0x7}, 4) {
		t.Errorf("connected node decoded %x", out[1])
	}
	if out[2] != nil || out[3] != nil {
		t.Errorf("disconnected nodes decoded %x, %x; want nil", out[2], out[3])
	}
}

func TestWaveBroadcastRejectsZeroBits(t *testing.T) {
	g := graph.Path(2)
	if _, _, err := waveOutputs(g, 0, nil, 0, g.N(), 1, WaveOptions{}); err == nil {
		t.Error("bits=0 accepted")
	}
}

func TestNoisyWaveBroadcastDeliversUnderNoise(t *testing.T) {
	msg := []byte{0xd2, 0x4b}
	tests := []struct {
		name string
		g    *graph.Graph
		eps  float64
	}{
		{name: "path eps0.1", g: graph.Path(8), eps: 0.1},
		{name: "grid eps0.15", g: graph.Grid(4, 4), eps: 0.15},
		{name: "cycle eps0.1", g: graph.Cycle(10), eps: 0.1},
		{name: "geometric eps0.1", g: geometric(t, 25, 4), eps: 0.1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tt.g.Diameter() + 1
			out, rounds, err := RunNoisyWaveBroadcast(tt.g, 0, msg, 16, d, 32, tt.eps, 8)
			if err != nil {
				t.Fatal(err)
			}
			if want := NoisyWaveRounds(tt.g.N(), 16, d, 32); rounds != want {
				t.Errorf("rounds = %d, want %d", rounds, want)
			}
			for v := 0; v < tt.g.N(); v++ {
				if !wire.Equal(out[v], msg, 16) {
					t.Errorf("node %d decoded %x, want %x", v, out[v], msg)
				}
			}
		})
	}
}

func TestNoisyWaveBroadcastMatchesNoiselessSemantics(t *testing.T) {
	// At ε = 0 the frame-lifted protocol must deliver exactly like the
	// round-level one (it is the same schedule, stretched).
	g := graph.Grid(3, 4)
	msg := []byte{0x99}
	out, _, err := RunNoisyWaveBroadcast(g, 5, msg, 8, 0, 8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !wire.Equal(out[v], msg, 8) {
			t.Errorf("node %d decoded %x", v, out[v])
		}
	}
}

func TestNoisyWaveBroadcastNoPhantomUnderPureNoise(t *testing.T) {
	// Without a source wave, noise alone must not hallucinate a marker
	// (w.h.p. at these sizes): all non-source nodes output nil.
	g := graph.Path(6)
	// Source with an all-zero message still sends the marker; instead make
	// the "source" disconnected from the rest.
	h := graph.MustFromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}})
	out, _, err := RunNoisyWaveBroadcast(h, 0, []byte{0xff}, 8, 6, 32, 0.15, 12)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	for v := 1; v < h.N(); v++ {
		if out[v] != nil {
			t.Errorf("node %d hallucinated a message %x from pure noise", v, out[v])
		}
	}
}

func TestNoisyWaveBroadcastRejectsZeroBits(t *testing.T) {
	if _, _, err := RunNoisyWaveBroadcast(graph.Path(2), 0, nil, 0, 0, 8, 0.1, 1); err == nil {
		t.Error("bits=0 accepted")
	}
}
