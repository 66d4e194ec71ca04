package core

import (
	"fmt"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// pairXor is a CONGEST test algorithm: for two rounds, send each neighbor
// ID^round, then record what each neighbor sent.
type pairXor struct {
	env       congest.Env
	neighbors []int
	log       []string
	done      bool
}

func (p *pairXor) Init(env congest.Env, neighbors []int) {
	p.env = env
	p.neighbors = neighbors
}

func (p *pairXor) Send(round int) []congest.Directed {
	out := make([]congest.Directed, 0, len(p.neighbors))
	for _, u := range p.neighbors {
		var w wire.Writer
		w.WriteUint(uint64((p.env.ID+u+round)%p.env.N), wire.BitsFor(p.env.N))
		out = append(out, congest.Directed{To: u, Msg: w.PaddedBytes(p.env.MsgBits)})
	}
	return out
}

func (p *pairXor) Receive(round int, in []congest.Incoming) {
	for _, inc := range in {
		v, err := wire.NewReader(inc.Msg).ReadUint(wire.BitsFor(p.env.N))
		if err != nil {
			panic(err)
		}
		p.log = append(p.log, fmt.Sprintf("r%d:%d->%d", round, inc.From, v))
	}
	if round >= 1 {
		p.done = true
	}
}

func (p *pairXor) Done() bool  { return p.done }
func (p *pairXor) Output() any { return p.log }

// runNativeCongest is the serial reference for addressed CONGEST that the
// adapter is pinned against: each round every running node's sends reach
// the addressed neighbors, and each running receiver gets its inbox sorted
// by sender.
func runNativeCongest(g *graph.Graph, msgBits int, seed uint64, algs []congest.Algorithm, maxRounds int) (*congest.Result, error) {
	n := g.N()
	for v, a := range algs {
		a.Init(congest.Env{
			ID:        v,
			N:         n,
			Degree:    g.Degree(v),
			MaxDegree: g.MaxDegree(),
			MsgBits:   msgBits,
			Rng:       congest.NodeStream(seed, v),
		}, g.Neighbors(v))
	}
	allDone := func() bool {
		for _, a := range algs {
			if !a.Done() {
				return false
			}
		}
		return true
	}
	res := &congest.Result{}
	for ; res.Rounds < maxRounds && !allDone(); res.Rounds++ {
		inboxes := make([][]congest.Incoming, n)
		for v, a := range algs {
			if a.Done() {
				continue
			}
			for _, d := range a.Send(res.Rounds) {
				if !g.HasEdge(v, d.To) {
					return nil, fmt.Errorf("node %d round %d: sends to non-neighbor %d", v, res.Rounds, d.To)
				}
				if err := congest.CheckWidth(d.Msg, msgBits); err != nil {
					return nil, err
				}
				inboxes[d.To] = append(inboxes[d.To], congest.Incoming{From: v, Msg: d.Msg})
				res.Messages++
			}
		}
		for v, a := range algs {
			if !a.Done() {
				a.Receive(res.Rounds, inboxes[v])
			}
		}
	}
	res.AllDone = allDone()
	res.Outputs = make([]any, n)
	for v, a := range algs {
		res.Outputs[v] = a.Output()
	}
	return res, nil
}

// TestAdapterMatchesNativeCongest runs the same CONGEST algorithm on the
// serial CONGEST reference and via CongestAdapter on the native Broadcast
// CONGEST engine: outputs must agree exactly (Corollary 12's reduction is
// lossless).
func TestAdapterMatchesNativeCongest(t *testing.T) {
	g := testGraph(t)
	const seed = 11
	inner := 2 * wire.BitsFor(g.N())
	outer := AdapterMsgBits(g.N(), inner)

	nat := make([]congest.Algorithm, g.N())
	for v := range nat {
		nat[v] = &pairXor{}
	}
	natRes, err := runNativeCongest(g, inner, seed, nat, 10)
	if err != nil {
		t.Fatal(err)
	}

	be, err := congest.NewBroadcastEngine(g, outer, seed)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]congest.Algorithm, g.N())
	for v := range wrapped {
		wrapped[v] = &pairXor{}
	}
	adRes, err := be.Run(WrapCongest(wrapped), CongestRounds(10, g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	if !adRes.AllDone {
		t.Fatal("adapter run did not finish")
	}
	for v := 0; v < g.N(); v++ {
		if fmt.Sprint(natRes.Outputs[v]) != fmt.Sprint(adRes.Outputs[v]) {
			t.Errorf("node %d:\nnative:  %v\nadapter: %v", v, natRes.Outputs[v], adRes.Outputs[v])
		}
	}
	// The adapter costs 1 + T·Δ broadcast rounds for T CONGEST rounds.
	wantRounds := CongestRounds(natRes.Rounds, g.MaxDegree())
	if adRes.Rounds > wantRounds {
		t.Errorf("adapter used %d broadcast rounds, want ≤ %d", adRes.Rounds, wantRounds)
	}
}

// TestAdapterOverBeeps composes both reductions: CONGEST → Broadcast
// CONGEST → noisy beeps, Corollary 12 end to end.
func TestAdapterOverBeeps(t *testing.T) {
	g := graph.RandomBoundedDegree(12, 3, 0.2, rng.New(200))
	const seed = 12
	inner := 2 * wire.BitsFor(g.N())
	outer := AdapterMsgBits(g.N(), inner)

	nat := make([]congest.Algorithm, g.N())
	for v := range nat {
		nat[v] = &pairXor{}
	}
	natRes, err := runNativeCongest(g, inner, seed, nat, 10)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := NewBroadcastRunner(g, RunnerConfig{
		Params:      DefaultParams(g.N(), g.MaxDegree(), outer, 0.05),
		ChannelSeed: 21,
		AlgSeed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]congest.Algorithm, g.N())
	for v := range wrapped {
		wrapped[v] = &pairXor{}
	}
	simRes, err := runner.Run(WrapCongest(wrapped), CongestRounds(10, g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	if simRes.MessageErrors != 0 {
		t.Fatalf("beep-level decode errors: %d", simRes.MessageErrors)
	}
	for v := 0; v < g.N(); v++ {
		if fmt.Sprint(natRes.Outputs[v]) != fmt.Sprint(simRes.Outputs[v]) {
			t.Errorf("node %d:\nnative: %v\nbeeps:  %v", v, natRes.Outputs[v], simRes.Outputs[v])
		}
	}
}

func TestAdapterMsgBits(t *testing.T) {
	// 2 IDs of 7 bits + 10 payload bits.
	if got := AdapterMsgBits(100, 10); got != 24 {
		t.Errorf("AdapterMsgBits(100,10) = %d, want 24", got)
	}
}

func TestAdapterFailsClosedOnTinyBandwidth(t *testing.T) {
	g := graph.Path(2)
	be, _ := congest.NewBroadcastEngine(g, 2, 1) // cannot fit 2 IDs
	algs := WrapCongest([]congest.Algorithm{&pairXor{}, &pairXor{}})
	res, err := be.Run(algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Error("undersized adapter should report done immediately")
	}
	for _, out := range res.Outputs {
		if _, isErr := out.(error); !isErr {
			t.Error("undersized adapter should output an error")
		}
	}
}

func TestCongestRounds(t *testing.T) {
	if got := CongestRounds(5, 4); got != 21 {
		t.Errorf("CongestRounds(5,4) = %d, want 21", got)
	}
	if got := CongestRounds(3, 0); got != 4 {
		t.Errorf("CongestRounds(3,0) = %d, want 4", got)
	}
}
