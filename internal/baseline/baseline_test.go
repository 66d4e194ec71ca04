package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// gossip broadcasts the node ID each round and records received multisets.
type gossip struct {
	env    congest.Env
	rounds int
	got    [][]uint64
	done   bool
}

func (g *gossip) Init(env congest.Env) {
	g.env = env
	if g.rounds == 0 {
		g.rounds = 1
	}
}

func (g *gossip) Broadcast(round int) congest.Message {
	var w wire.Writer
	w.WriteUint(uint64(g.env.ID), wire.BitsFor(g.env.N))
	return w.PaddedBytes(g.env.MsgBits)
}

func (g *gossip) Receive(round int, msgs []congest.Message) {
	var ids []uint64
	for _, m := range msgs {
		id, err := wire.NewReader(m).ReadUint(wire.BitsFor(g.env.N))
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	g.got = append(g.got, ids)
	if len(g.got) >= g.rounds {
		g.done = true
	}
}

func (g *gossip) Done() bool  { return g.done }
func (g *gossip) Output() any { return g.got }

func TestBaselineConfigValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewRunner(g, Config{MsgBits: 0}); err == nil {
		t.Error("MsgBits=0 accepted")
	}
	if _, err := NewRunner(g, Config{MsgBits: 8, Epsilon: 0.7}); err == nil {
		t.Error("ε=0.7 accepted")
	}
}

func TestBaselineMatchesNativeNoiseless(t *testing.T) {
	g := graph.RandomBoundedDegree(24, 4, 0.15, rng.New(100))
	const algSeed = 9

	native, err := congest.NewBroadcastEngine(g, 12, algSeed)
	if err != nil {
		t.Fatal(err)
	}
	nat := make([]congest.BroadcastAlgorithm, g.N())
	for v := range nat {
		nat[v] = &gossip{rounds: 3}
	}
	natRes, err := native.Run(nat, 10)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := NewRunner(g, Config{MsgBits: 12, Epsilon: 0, ChannelSeed: 1, AlgSeed: algSeed})
	if err != nil {
		t.Fatal(err)
	}
	sim := make([]congest.BroadcastAlgorithm, g.N())
	for v := range sim {
		sim[v] = &gossip{rounds: 3}
	}
	simRes, err := runner.Run(sim, 10)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.MessageErrors != 0 || simRes.MembershipErrors != 0 {
		t.Fatalf("baseline noiseless errors: %d msg, %d presence",
			simRes.MessageErrors, simRes.MembershipErrors)
	}
	for v := 0; v < g.N(); v++ {
		if fmt.Sprint(natRes.Outputs[v]) != fmt.Sprint(simRes.Outputs[v]) {
			t.Errorf("node %d differs:\nnative:   %v\nbaseline: %v", v, natRes.Outputs[v], simRes.Outputs[v])
		}
	}
}

func TestBaselineUnderNoise(t *testing.T) {
	g := graph.RandomBoundedDegree(20, 4, 0.2, rng.New(101))
	runner, err := NewRunner(g, Config{MsgBits: 10, Epsilon: 0.1, ChannelSeed: 2, AlgSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &gossip{rounds: 2}
	}
	res, err := runner.Run(algs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageErrors != 0 {
		t.Errorf("baseline decode errors at ε=0.1: %d", res.MessageErrors)
	}
}

func TestBaselineOverheadHasColorFactor(t *testing.T) {
	// The baseline's per-round cost carries the min{n, Δ²} factor the
	// paper eliminates: on K_{Δ,Δ} the distance-2 coloring needs 2Δ colors
	// (every pair of same-side vertices is at distance 2).
	g := graph.CompleteBipartite(6, 6)
	runner, err := NewRunner(g, Config{MsgBits: 8, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if runner.NumColors() < 12 {
		t.Errorf("K_{6,6} distance-2 coloring uses %d colors, want ≥ 12", runner.NumColors())
	}
	want := runner.NumColors() * (1 + 8) * 1
	if runner.RoundsPerSimRound() != want {
		t.Errorf("RoundsPerSimRound = %d, want %d", runner.RoundsPerSimRound(), want)
	}
}

// TestDefaultRhoMonotone walks every calibration bucket, each boundary
// from both sides: ρ never decreases in ε and is always odd and positive,
// since majority decoding needs an odd count and the runners take ρ from
// here alone.
func TestDefaultRhoMonotone(t *testing.T) {
	prev := 0
	for _, eps := range []float64{0, 0.05, 0.069, 0.07, 0.1, 0.119, 0.12, 0.15, 0.199, 0.2, 0.259, 0.26, 0.3, 0.4999} {
		rho := DefaultRho(eps)
		if rho < prev {
			t.Errorf("ρ decreased at ε=%v", eps)
		}
		if rho < 1 {
			t.Errorf("ρ=%d is not positive at ε=%v", rho, eps)
		}
		if rho%2 == 0 {
			t.Errorf("ρ=%d is even at ε=%v", rho, eps)
		}
		prev = rho
	}
}

func TestEstimatedSetupRounds(t *testing.T) {
	if got := EstimatedSetupRounds(256, 4); got != 4*4*4*4*8 {
		t.Errorf("EstimatedSetupRounds = %d", got)
	}
}

// TestBaselineSerialParallelIdentical: the TDMA runner's sharded phases
// must be bit-identical to the serial run — outputs, error counters, beep
// rounds, and energy — under noise.
func TestBaselineSerialParallelIdentical(t *testing.T) {
	// n must span several 64-aligned shards or the parallel path is never taken.
	g := graph.RandomBoundedDegree(150, 5, 0.04, rng.New(31))
	runOnce := func(workers int) *core.Result {
		r, err := NewRunner(g, Config{
			MsgBits:     10,
			Epsilon:     0.1,
			ChannelSeed: 4,
			AlgSeed:     5,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		algs := make([]congest.BroadcastAlgorithm, g.N())
		for v := range algs {
			algs[v] = &gossip{rounds: 3}
		}
		res, err := r.Run(algs, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := runOnce(1)
	for _, cfg := range []int{2, 5} {
		got := runOnce(cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%v: result differs from serial:\n got %+v\nwant %+v", cfg, got, want)
		}
	}
}

// fixedAlg broadcasts one preallocated message per round with
// allocation-free callbacks (the steady-state allocation probe).
type fixedAlg struct {
	msg    congest.Message
	rounds int
	seen   int
}

func (a *fixedAlg) Init(congest.Env)               { a.seen = 0 }
func (a *fixedAlg) Broadcast(int) congest.Message  { return a.msg }
func (a *fixedAlg) Receive(int, []congest.Message) { a.seen++ }
func (a *fixedAlg) Done() bool                     { return a.seen >= a.rounds }
func (a *fixedAlg) Output() any                    { return nil }

// TestBaselineSteadyStateAllocs: like the Algorithm 1 runner, a warm TDMA
// round (encode, radio, decode, deliver, score) must not allocate outside
// algorithm callbacks. Differencing two Run lengths cancels per-Run setup.
func TestBaselineSteadyStateAllocs(t *testing.T) {
	g, err := graph.RandomRegular(20, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(g, Config{MsgBits: 8, Epsilon: 0.1, ChannelSeed: 3, AlgSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.WriteUint(0x3c, 8)
	msg := w.PaddedBytes(8)
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &fixedAlg{msg: msg}
	}
	run := func(rounds int) float64 {
		for _, a := range algs {
			a.(*fixedAlg).rounds = rounds
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := runner.Run(algs, rounds); err != nil {
				panic(err)
			}
		})
	}
	run(2) // warm lazy pattern buffers and noise samplers
	short, long := run(2), run(12)
	if perRound := (long - short) / 10; perRound > 0 {
		t.Errorf("steady-state TDMA round allocates %.2f times (run(12)=%.1f run(2)=%.1f)",
			perRound, long, short)
	}
}
