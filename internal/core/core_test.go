package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/wire"
)

// gossip broadcasts the node ID for a fixed number of rounds and records
// everything received; it exercises the full encode/decode pipeline with
// ground-truth comparison.
type gossip struct {
	env    Envish
	rounds int
	got    [][]uint64
	done   bool
}

// Envish aliases congest.Env for brevity in tests.
type Envish = congest.Env

func (g *gossip) Init(env Envish) {
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

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.RandomBoundedDegree(24, 4, 0.15, rng.New(100))
}

func runnerParams(g *graph.Graph, eps float64) Params {
	return DefaultParams(g.N(), g.MaxDegree(), 12, eps)
}

func TestParamsValidate(t *testing.T) {
	g := testGraph(t)
	base := runnerParams(g, 0.05)
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{name: "zero msg bits", mutate: func(p *Params) { p.MsgBits = 0 }},
		{name: "K too small", mutate: func(p *Params) { p.K = g.MaxDegree() }},
		{name: "C too small", mutate: func(p *Params) { p.C = 1 }},
		{name: "R too small", mutate: func(p *Params) { p.R = 0 }},
		{name: "eps too big", mutate: func(p *Params) { p.Channel = noise.Symmetric{Eps: 0.5} }},
		{name: "eps NaN", mutate: func(p *Params) { p.Channel = noise.Symmetric{Eps: math.NaN()} }},
		{name: "M below n for ByID", mutate: func(p *Params) { p.M = g.N() - 1 }},
		{name: "bad assignment", mutate: func(p *Params) { p.Assignment = 0 }},
	}
	if err := base.Validate(g.N(), g.MaxDegree()); err != nil {
		t.Fatalf("base params invalid: %v", err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(g.N(), g.MaxDegree()); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := Params{MsgBits: 10, K: 5, C: 6, R: 3, M: 64, Channel: noise.Symmetric{Eps: 0.1}, Assignment: AssignByID}
	if p.W() != 30 {
		t.Errorf("W = %d, want 30", p.W())
	}
	if p.BlockSize() != 30 {
		t.Errorf("BlockSize = %d, want 30", p.BlockSize())
	}
	if p.PhaseLength() != 900 {
		t.Errorf("PhaseLength = %d, want 900", p.PhaseLength())
	}
	if p.RoundsPerSimRound() != 1800 {
		t.Errorf("RoundsPerSimRound = %d, want 1800", p.RoundsPerSimRound())
	}
	// θ = (2·0.1+1)/4 · 30 = 9.
	if p.MembershipThreshold() != 9 {
		t.Errorf("MembershipThreshold = %d, want 9", p.MembershipThreshold())
	}
}

// TestNativeEquivalenceNoiseless is the central correctness test: under a
// noiseless channel, the simulated execution must deliver exactly what the
// native Broadcast CONGEST engine delivers, for every node and round.
func TestNativeEquivalenceNoiseless(t *testing.T) {
	g := testGraph(t)
	const algSeed = 9

	native, err := congest.NewBroadcastEngine(g, 12, algSeed)
	if err != nil {
		t.Fatal(err)
	}
	nativeAlgs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range nativeAlgs {
		nativeAlgs[v] = &gossip{rounds: 3}
	}
	nativeRes, err := native.Run(nativeAlgs, 10)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := NewBroadcastRunner(g, RunnerConfig{
		Params:      runnerParams(g, 0),
		ChannelSeed: 1,
		AlgSeed:     algSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	simAlgs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range simAlgs {
		simAlgs[v] = &gossip{rounds: 3}
	}
	simRes, err := runner.Run(simAlgs, 10)
	if err != nil {
		t.Fatal(err)
	}

	if simRes.MessageErrors != 0 || simRes.MembershipErrors != 0 {
		t.Fatalf("noiseless simulation had %d message errors, %d membership errors",
			simRes.MessageErrors, simRes.MembershipErrors)
	}
	if !simRes.AllDone || simRes.SimRounds != nativeRes.Rounds {
		t.Fatalf("sim rounds %d (done=%v), native rounds %d", simRes.SimRounds, simRes.AllDone, nativeRes.Rounds)
	}
	for v := 0; v < g.N(); v++ {
		if fmt.Sprint(nativeRes.Outputs[v]) != fmt.Sprint(simRes.Outputs[v]) {
			t.Errorf("node %d outputs differ:\nnative: %v\nsim:    %v",
				v, nativeRes.Outputs[v], simRes.Outputs[v])
		}
	}
	if want := simRes.SimRounds * runner.cfg.Params.RoundsPerSimRound(); simRes.BeepRounds != want {
		t.Errorf("BeepRounds = %d, want %d", simRes.BeepRounds, want)
	}
}

// TestNoisySimulationDecodesCorrectly exercises Theorem 11's claim at
// practical scale: at ε = 0.1 all rounds decode without error for this
// seed.
func TestNoisySimulationDecodesCorrectly(t *testing.T) {
	g := testGraph(t)
	runner, err := NewBroadcastRunner(g, RunnerConfig{
		Params:      runnerParams(g, 0.1),
		ChannelSeed: 2,
		AlgSeed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &gossip{rounds: 3}
	}
	res, err := runner.Run(algs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageErrors != 0 {
		t.Errorf("message errors = %d at ε=0.1", res.MessageErrors)
	}
	if res.MembershipErrors != 0 {
		t.Errorf("membership errors = %d at ε=0.1", res.MembershipErrors)
	}
	if !res.AllDone {
		t.Error("not all nodes finished")
	}
}

// TestRandomAssignmentMode runs the paper-faithful random codeword mode
// with a comfortably large codebook.
func TestRandomAssignmentMode(t *testing.T) {
	g := testGraph(t)
	p := runnerParams(g, 0.05)
	p.Assignment = AssignRandom
	p.M = 4096
	runner, err := NewBroadcastRunner(g, RunnerConfig{Params: p, ChannelSeed: 3, AlgSeed: 9})
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
		t.Errorf("message errors = %d with M=4096", res.MessageErrors)
	}
}

// TestRandomAssignmentCollisionsDetected is a failure-injection test: with
// a pathologically small codebook, within-neighborhood codeword collisions
// are inevitable and must be surfaced as errors rather than silent
// corruption.
func TestRandomAssignmentCollisionsDetected(t *testing.T) {
	g := graph.Complete(6)
	p := DefaultParams(g.N(), g.MaxDegree(), 8, 0)
	p.Assignment = AssignRandom
	p.M = 2
	runner, err := NewBroadcastRunner(g, RunnerConfig{Params: p, ChannelSeed: 4, AlgSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &gossip{rounds: 3}
	}
	res, err := runner.Run(algs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MembershipErrors == 0 {
		t.Error("M=2 on K6 produced no membership errors; collisions must be detected")
	}
}

// TestByIDMembershipIsNeighborDiscovery: with ByID assignment, phase-1
// decoding recovers exactly the inclusive neighborhood IDs.
func TestByIDMembershipIsNeighborDiscovery(t *testing.T) {
	g := testGraph(t)
	runner, err := NewBroadcastRunner(g, RunnerConfig{Params: runnerParams(g, 0.05), ChannelSeed: 5, AlgSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &gossip{rounds: 1}
	}
	res, err := runner.Run(algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Membership errors would mean some node's decoded ID set differed
	// from its true neighborhood.
	if res.MembershipErrors != 0 {
		t.Errorf("membership errors = %d", res.MembershipErrors)
	}
	// Every node's received multiset is its neighbor IDs.
	for v := 0; v < g.N(); v++ {
		got := res.Outputs[v].([][]uint64)[0]
		want := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("node %d decoded %d neighbors, want %d", v, len(got), len(want))
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Errorf("node %d neighbor %d: got %d, want %d", v, i, got[i], want[i])
			}
		}
	}
}

// silentAlg broadcasts nothing ever; the runner must deliver empty
// multisets without consuming radio rounds.
type silentAlg struct {
	rounds int
	empty  bool
	done   bool
}

func (s *silentAlg) Init(Envish) { s.empty = true }
func (s *silentAlg) Broadcast(round int) congest.Message {
	return nil
}
func (s *silentAlg) Receive(round int, msgs []congest.Message) {
	if len(msgs) != 0 {
		s.empty = false
	}
	s.rounds++
	if s.rounds >= 2 {
		s.done = true
	}
}
func (s *silentAlg) Done() bool  { return s.done }
func (s *silentAlg) Output() any { return s.empty }

func TestAllSilentRound(t *testing.T) {
	g := graph.Path(4)
	runner, err := NewBroadcastRunner(g, RunnerConfig{
		Params: DefaultParams(g.N(), g.MaxDegree(), 8, 0.05), ChannelSeed: 6, AlgSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	algs := make([]congest.BroadcastAlgorithm, g.N())
	for v := range algs {
		algs[v] = &silentAlg{}
	}
	res, err := runner.Run(algs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Error("silent algorithms did not finish")
	}
	if res.BeepRounds != 0 {
		t.Errorf("silent rounds consumed %d beep rounds", res.BeepRounds)
	}
	for v, out := range res.Outputs {
		if out != true {
			t.Errorf("node %d received phantom messages", v)
		}
	}
}

func TestRunnerRejectsOversizedMessage(t *testing.T) {
	g := graph.Path(2)
	runner, err := NewBroadcastRunner(g, RunnerConfig{
		Params: DefaultParams(g.N(), g.MaxDegree(), 4, 0), ChannelSeed: 7, AlgSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	algs := []congest.BroadcastAlgorithm{&gossip{rounds: 1}, &gossip{rounds: 1}}
	// gossip writes BitsFor(2)=1 bit into MsgBits=4: fine. Make it fail by
	// using a graph of 2 nodes but MsgBits=4 < needed... instead check
	// explicit oversend.
	_ = algs
	over := []congest.BroadcastAlgorithm{&oversize{}, &oversize{}}
	if _, err := runner.Run(over, 3); err == nil {
		t.Error("oversized message accepted by runner")
	}
}

type oversize struct{ done bool }

func (o *oversize) Init(Envish)                    {}
func (o *oversize) Broadcast(int) congest.Message  { return make(congest.Message, 64) }
func (o *oversize) Receive(int, []congest.Message) { o.done = true }
func (o *oversize) Done() bool                     { return o.done }
func (o *oversize) Output() any                    { return nil }

func TestDefaultParamsScaleWithEpsilon(t *testing.T) {
	prev := 0
	for _, eps := range []float64{0, 0.05, 0.1, 0.15, 0.3} {
		p := DefaultParams(64, 8, 16, eps)
		if err := p.Validate(64, 8); err != nil {
			t.Fatalf("DefaultParams(eps=%v) invalid: %v", eps, err)
		}
		if p.R < prev {
			t.Errorf("repetition factor decreased at eps=%v", eps)
		}
		prev = p.R
	}
}

func TestPaperParams(t *testing.T) {
	sizes, err := PaperParams(256, 8, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sizes.CEps < 108 {
		t.Errorf("c_ε = %v < 108", sizes.CEps)
	}
	// Blowup near ε → ½ and ε → 0 (both make constants explode).
	mid, _ := PaperParams(256, 8, 1, 0.25)
	hi, _ := PaperParams(256, 8, 1, 0.49)
	lo, _ := PaperParams(256, 8, 1, 0.001)
	if hi.CEps <= mid.CEps {
		t.Errorf("c_ε should blow up as ε→½: %v vs %v", hi.CEps, mid.CEps)
	}
	if lo.CEps <= mid.CEps {
		t.Errorf("c_ε should blow up as ε→0: %v vs %v", lo.CEps, mid.CEps)
	}
	// Phase length is c_ε³γ(Δ+1)log n.
	if sizes.PhaseLen <= sizes.DistanceLen || sizes.DistanceLen <= sizes.CodewordBits {
		t.Error("size hierarchy violated")
	}
	if _, err := PaperParams(256, 8, 1, 0); err == nil {
		t.Error("ε=0 accepted (paper constants are for the noisy model)")
	}
	if _, err := PaperParams(256, 8, 1, math.NaN()); err == nil {
		t.Error("ε=NaN accepted")
	}
}

// fixedAlg broadcasts one preallocated message every round with
// allocation-free callbacks — the probe for the steady-state allocation
// test. It never retains its (borrowed) inbox.
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

// TestRunSteadyStateAllocs: once the runner's lazy buffers are warm, a
// steady-state simulated round — collect, assign, both radio phases,
// decode, deliver, score — must perform zero heap allocations beyond the
// algorithms' own callbacks. Measured by differencing two Run lengths so
// per-Run setup (Result, env streams, collector) cancels out.
func TestRunSteadyStateAllocs(t *testing.T) {
	g, err := graph.RandomRegular(24, 4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(g.N(), g.MaxDegree(), 8, 0.1)
	for _, tc := range []struct {
		name   string
		mut    func(*Params)
		filter bool
	}{
		{name: "byid", mut: func(*Params) {}},
		{name: "random-codebook", mut: func(p *Params) { p.Assignment = AssignRandom; p.M = 64 }},
		{name: "no-solo-filter", mut: func(p *Params) { p.DisableSoloFilter = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pp := p
			tc.mut(&pp)
			runner, err := NewBroadcastRunner(g, RunnerConfig{
				Params: pp, ChannelSeed: 7, AlgSeed: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			var w wire.Writer
			w.WriteUint(0xa5, 8)
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
				t.Errorf("steady-state round allocates %.2f times (run(12)=%.1f run(2)=%.1f)",
					perRound, long, short)
			}
		})
	}
}

// TestRunnerSerialParallelIdentical: the Algorithm 1 runner's sharded
// phases (collect, assign, encode, radio, decode) must be bit-identical to
// the serial run, including transcripts and error counters, under noise
// and in both assignment modes.
func TestRunnerSerialParallelIdentical(t *testing.T) {
	// n must span several 64-aligned shards or the parallel path is never taken.
	g := graph.RandomBoundedDegree(160, 5, 0.03, rng.New(61))
	for _, assign := range []Assignment{AssignByID, AssignRandom} {
		runOnce := func(workers int) (*Result, []*bitstring.BitString) {
			p := DefaultParams(g.N(), g.MaxDegree(), 12, 0.1)
			p.Assignment = assign
			if assign == AssignRandom {
				p.M = 256
			}
			r, err := NewBroadcastRunner(g, RunnerConfig{
				Params:      p,
				ChannelSeed: 8,
				AlgSeed:     9,
				RecordBeeps: true,
				Workers:     workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			algs := make([]congest.BroadcastAlgorithm, g.N())
			for v := range algs {
				algs[v] = &gossip{rounds: 2}
			}
			res, err := r.Run(algs, 4)
			if err != nil {
				t.Fatal(err)
			}
			return res, r.BeepHistory()
		}
		want, wantHist := runOnce(1)
		for _, cfg := range []int{2, 6} {
			got, gotHist := runOnce(cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("assign=%v workers=%v: result differs from serial:\n got %+v\nwant %+v", assign, cfg, got, want)
			}
			if len(gotHist) != len(wantHist) {
				t.Fatalf("assign=%v workers=%v: transcript length %d vs %d", assign, cfg, len(gotHist), len(wantHist))
			}
			for i := range gotHist {
				if !gotHist[i].Equal(wantHist[i]) {
					t.Fatalf("assign=%v workers=%v: beep transcript differs at round %d", assign, cfg, i)
				}
			}
		}
	}
}
