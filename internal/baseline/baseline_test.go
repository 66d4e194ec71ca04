package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/noise"
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

// runOne runs a one-lane runner over algs and returns the lane's result.
func runOne(r *Runner, algs []congest.BroadcastAlgorithm, budget int) (*core.Result, error) {
	res, err := r.Run([][]congest.BroadcastAlgorithm{algs}, budget)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestBaselineConfigValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewRunner(g, Config{MsgBits: 0}, []uint64{0}); err == nil {
		t.Error("MsgBits=0 accepted")
	}
	if _, err := NewRunner(g, Config{MsgBits: 8, Channel: noise.Symmetric{Eps: 0.7}}, []uint64{0}); err == nil {
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

	runner, err := NewRunner(g, Config{MsgBits: 12, ChannelSeed: 1}, []uint64{algSeed})
	if err != nil {
		t.Fatal(err)
	}
	sim := make([]congest.BroadcastAlgorithm, g.N())
	for v := range sim {
		sim[v] = &gossip{rounds: 3}
	}
	simRes, err := runOne(runner, sim, 10)
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
	runner, err := NewRunner(g, Config{MsgBits: 10, Channel: noise.Symmetric{Eps: 0.1}, ChannelSeed: 2}, []uint64{9})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &gossip{rounds: 2}
	}
	res, err := runOne(runner, algs, 10)
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
	runner, err := NewRunner(g, Config{MsgBits: 8}, []uint64{0})
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
			Channel:     noise.Symmetric{Eps: 0.1},
			ChannelSeed: 4,
			Workers:     workers,
		}, []uint64{5})
		if err != nil {
			t.Fatal(err)
		}
		algs := make([]congest.BroadcastAlgorithm, g.N())
		for v := range algs {
			algs[v] = &gossip{rounds: 3}
		}
		res, err := runOne(r, algs, 5)
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
// round must not allocate outside algorithm callbacks, through beep
// windows (encode, radio, decode, score) or through direct delivery to
// several lanes. Differencing two Run lengths cancels per-Run setup.
func TestBaselineSteadyStateAllocs(t *testing.T) {
	g, err := graph.RandomRegular(20, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.WriteUint(0x3c, 8)
	msg := w.PaddedBytes(8)
	for _, tc := range []struct {
		cfg   Config
		lanes int
	}{
		{Config{MsgBits: 8, Channel: noise.Symmetric{Eps: 0.1}, ChannelSeed: 3}, 1},
		{Config{MsgBits: 8}, 3},
	} {
		runner, err := NewRunner(g, tc.cfg, laneSeeds(tc.lanes))
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([][]congest.BroadcastAlgorithm, tc.lanes)
		for k := range lanes {
			lanes[k] = make([]congest.BroadcastAlgorithm, g.N())
			for v := range lanes[k] {
				lanes[k][v] = &fixedAlg{msg: msg}
			}
		}
		run := func(rounds int) float64 {
			for _, la := range lanes {
				for _, a := range la {
					a.(*fixedAlg).rounds = rounds
				}
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := runner.Run(lanes, rounds); err != nil {
					panic(err)
				}
			})
		}
		run(2) // warm lazy pattern buffers and noise samplers
		short, long := run(2), run(12)
		if perRound := (long - short) / 10; perRound > 0 {
			t.Errorf("channel %v, %d lanes: steady-state TDMA round allocates %.2f times (run(12)=%.1f run(2)=%.1f)",
				tc.cfg.Channel, tc.lanes, perRound, long, short)
		}
	}
}

// finisher finishes inside its first Broadcast on an even ID and after
// two receptions on an odd one, counting its Receive calls.
type finisher struct {
	id       int
	receives int
	done     bool
}

func (f *finisher) Init(env congest.Env) { f.id, f.receives, f.done = env.ID, 0, false }

func (f *finisher) Broadcast(int) congest.Message {
	if f.id%2 == 0 {
		f.done = true
	}
	return congest.Message{byte(f.id)}
}

func (f *finisher) Receive(int, []congest.Message) {
	f.receives++
	f.done = f.receives >= 2
}

func (f *finisher) Done() bool  { return f.done }
func (f *finisher) Output() any { return f.receives }

// TestBaselineSkipsNodesDoneAfterBroadcast: a node that finishes inside
// Broadcast still sends, but is neither scored nor handed an inbox that
// round, as in the Algorithm 1 and CONGEST runners — on a noisy channel
// (beep windows), on a quiet one (direct delivery, 1 and 3 lanes) and
// on a quiet one read through windows. Even nodes must never receive;
// odd nodes receive once in each of the two rounds.
func TestBaselineSkipsNodesDoneAfterBroadcast(t *testing.T) {
	g := graph.RandomBoundedDegree(18, 4, 0.18, rng.New(600))
	for _, tc := range []struct {
		name    string
		cfg     Config
		lanes   int
		windows bool
	}{
		{"noisy", Config{MsgBits: 8, Channel: noise.Symmetric{Eps: 0.4}, ChannelSeed: 9}, 1, true},
		{"quiet", Config{MsgBits: 8}, 1, false},
		{"quiet-3-lanes", Config{MsgBits: 8}, 3, false},
		{"quiet-windows", Config{MsgBits: 8}, 1, true},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Workers = workers
				var r *Runner
				if tc.windows {
					r = windowRunner(t, g, cfg, 5)
				} else {
					var err error
					if r, err = NewRunner(g, cfg, laneSeeds(tc.lanes)); err != nil {
						t.Fatal(err)
					}
				}
				algs := make([][]congest.BroadcastAlgorithm, tc.lanes)
				for k := range algs {
					algs[k] = make([]congest.BroadcastAlgorithm, g.N())
					for v := range algs[k] {
						algs[k][v] = &finisher{}
					}
				}
				results, err := r.Run(algs, 10)
				if err != nil {
					t.Fatal(err)
				}
				for k, res := range results {
					if res.SimRounds != 2 || !res.AllDone {
						t.Errorf("lane %d: %d sim rounds, all done %v; want 2, true", k, res.SimRounds, res.AllDone)
					}
					for v, out := range res.Outputs {
						if want := 2 * (v % 2); out != want {
							t.Errorf("lane %d node %d: %v Receive calls, want %d", k, v, out, want)
						}
					}
				}
			})
		}
	}
}
