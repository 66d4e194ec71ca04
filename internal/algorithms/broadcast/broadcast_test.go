package broadcast

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

func outputsToPayloads(t *testing.T, outs []any) [][]byte {
	t.Helper()
	res := make([][]byte, len(outs))
	for i, o := range outs {
		p, ok := o.([]byte)
		if !ok {
			t.Fatalf("output %d has type %T", i, o)
		}
		res[i] = p
	}
	return res
}

// verifySlice is Verify over a slice of payloads.
func verifySlice(g *graph.Graph, root int, outputs [][]byte) error {
	return Verify(g, root, len(outputs), func(v int) []byte { return outputs[v] })
}

func TestNativeBroadcast(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{name: "path", g: graph.Path(12)},
		{name: "cycle", g: graph.Cycle(8)},
		{name: "complete", g: graph.Complete(6)},
		{name: "two components", g: graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})},
		{name: "singletons", g: graph.MustFromEdges(3, nil)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := congest.NewBroadcastEngine(tt.g, MsgBits(tt.g.N()), 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(New(tt.g.N(), 0, tt.g.N()), tt.g.N()+1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllDone {
				t.Fatal("broadcast did not terminate")
			}
			if err := verifySlice(tt.g, 0, outputsToPayloads(t, res.Outputs)); err != nil {
				t.Fatalf("invalid broadcast: %v", err)
			}
		})
	}
}

func TestBroadcastOverNoisyBeeps(t *testing.T) {
	g := graph.Cycle(10)
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), MsgBits(g.N()), 0.1),
		ChannelSeed: 24,
		AlgSeed:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(New(g.N(), 0, g.N()), g.N()+1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("broadcast over beeps did not terminate")
	}
	if err := verifySlice(g, 0, outputsToPayloads(t, res.Outputs)); err != nil {
		t.Fatalf("invalid broadcast over noisy beeps: %v", err)
	}
}

func TestPayloadDeterministicAndSized(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100, 1 << 20} {
		a, b := Payload(n), Payload(n)
		if !wire.Equal(a, b, PayloadBits(n)) {
			t.Fatalf("n=%d: payload not deterministic", n)
		}
		if bits := PayloadBits(n); bits <= 0 || bits > 62 {
			t.Fatalf("n=%d: payload width %d out of range", n, bits)
		}
		if len(a) != (PayloadBits(n)+7)/8 {
			t.Fatalf("n=%d: payload %d bytes for %d bits", n, len(a), PayloadBits(n))
		}
	}
	if wire.Equal(Payload(100), Payload(101), PayloadBits(100)) {
		t.Fatal("payloads for different n collide")
	}
}

func TestVerifyRejectsBadBroadcasts(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}})
	want := Payload(3)
	good := [][]byte{want, want, nil}
	if err := verifySlice(g, 0, good); err != nil {
		t.Fatalf("valid broadcast rejected: %v", err)
	}
	if err := verifySlice(g, 0, [][]byte{want, nil, nil}); err == nil {
		t.Error("reachable node with no payload accepted")
	}
	if err := verifySlice(g, 0, [][]byte{want, want, want}); err == nil {
		t.Error("unreachable node with payload accepted")
	}
	if err := verifySlice(g, 0, [][]byte{want, {0x00}, nil}); err == nil {
		t.Error("wrong payload accepted")
	}
	if err := verifySlice(g, 0, good[:2]); err == nil {
		t.Error("short output slice accepted")
	}
}
