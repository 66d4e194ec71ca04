// Benchmarks mirroring the experiment index of DESIGN.md §3: one bench per
// table (T0–T10) plus the ablations (A1–A3). Each measures the dominant
// operation behind its table so regressions in the pipeline show up as
// benchmark regressions. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algorithms/matching"
	"repro/internal/baseline"
	"repro/internal/beep"
	"repro/internal/beepalgs"
	"repro/internal/bitstring"
	"repro/internal/codes"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/localbroadcast"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/wire"
)

// mustRegular builds a d-regular benchmark graph.
func mustRegular(b *testing.B, n, d int, seed uint64) *graph.Graph {
	b.Helper()
	g, err := graph.RandomRegular(n, d, rng.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// mustCodes builds p's decode tables once, before a benchmark's timed
// loop: its runners then share them, as the alg1 engine's runners share
// the sweep artifact cache's, so an iteration times a round rather than
// a code build.
func mustCodes(b *testing.B, p core.Params) *core.Codes {
	b.Helper()
	c, err := core.BuildCodes(p)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchGossipRound measures one simulated Broadcast CONGEST round (two
// beep phases plus decoding at every node).
func benchGossipRound(b *testing.B, n, delta int, eps float64) {
	b.Helper()
	g := mustRegular(b, n, delta, 1)
	msgBits := 2 * wire.BitsFor(n)
	p := core.DefaultParams(n, g.MaxDegree(), msgBits, eps)
	codes := mustCodes(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
			Params:      p,
			Codes:       codes,
			ChannelSeed: uint64(i),
			AlgSeed:     2,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := runner.Run(gossip(n), 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.MessageErrors > n/4 {
			b.Fatalf("excessive decode errors: %d", res.MessageErrors)
		}
	}
	b.ReportMetric(float64(p.RoundsPerSimRound()), "beeprounds/simround")
}

// gossip returns one-round ID-broadcast algorithms.
func gossip(n int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &gossipAlg{}
	}
	return algs
}

type gossipAlg struct {
	env  congest.Env
	done bool
}

func (g *gossipAlg) Init(env congest.Env) { g.env = env }
func (g *gossipAlg) Broadcast(round int) congest.Message {
	var w wire.Writer
	w.WriteUint(uint64(g.env.ID), wire.BitsFor(g.env.N))
	return w.PaddedBytes(g.env.MsgBits)
}
func (g *gossipAlg) Receive(int, []congest.Message) { g.done = true }
func (g *gossipAlg) Done() bool                     { return g.done }
func (g *gossipAlg) Output() any                    { return nil }

// BenchmarkT0Params measures the paper-constant calculator.
func BenchmarkT0Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.PaperParams(256, 8, 1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1BeepCode measures the Theorem 4 superimposition check.
func BenchmarkT1BeepCode(b *testing.B) {
	code, err := codes.NewBlockedBeepCode(32, 32, 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codes.SuperimpositionCheck(code, 8, 40, 10, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT2DistanceCode measures Lemma 6's exhaustive min-distance scan.
func BenchmarkT2DistanceCode(b *testing.B) {
	code, err := codes.NewRandomDistanceCode(8, 108*8, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code.MinDistance() < 8 {
			b.Fatal("implausible min distance")
		}
	}
}

// BenchmarkT3Phase1 measures a noisy simulated round dominated by the
// phase-1 membership scan (small messages, larger noise).
func BenchmarkT3Phase1(b *testing.B) { benchGossipRound(b, 64, 6, 0.2) }

// BenchmarkT4BroadcastRound measures one simulated Broadcast CONGEST round
// across the Δ sweep of table T4.
func BenchmarkT4BroadcastRound(b *testing.B) {
	for _, delta := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			benchGossipRound(b, 64, delta, 0.1)
		})
	}
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGossipRound(b, n, 8, 0.1)
		})
	}
}

// BenchmarkT5CongestRound measures one CONGEST round via Corollary 12's
// adapter over beeps (1 discovery + Δ slots).
func BenchmarkT5CongestRound(b *testing.B) {
	const n, delta = 48, 4
	g := mustRegular(b, n, delta, 4)
	inner := wire.BitsFor(n)
	outer := core.AdapterMsgBits(n, inner)
	inst := localbroadcast.NewRandomInstance(g, inner, rng.New(5))
	p := core.DefaultParams(n, delta, outer, 0.05)
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
			Params:      p,
			Codes:       codes,
			ChannelSeed: uint64(i),
			AlgSeed:     6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(core.WrapCongest(localbroadcast.NewAlgorithms(inst)), core.CongestRounds(1, delta)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT6Baseline compares one simulated round under Algorithm 1 vs
// the TDMA baseline on a χ(G²)=Θ(Δ²) instance.
func BenchmarkT6Baseline(b *testing.B) {
	g, err := graph.ProjectivePlaneIncidence(5)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	msgBits := 2 * wire.BitsFor(n)
	b.Run("ours", func(b *testing.B) {
		p := core.DefaultParams(n, g.MaxDegree(), msgBits, 0.05)
		codes := mustCodes(b, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runner.Run(gossip(n), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tdma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runner, err := baseline.NewRunner(g, baseline.Config{
				MsgBits: msgBits, Epsilon: 0.05, ChannelSeed: uint64(i),
			}, []uint64{7})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runner.Run([][]congest.BroadcastAlgorithm{gossip(n)}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT7LocalBroadcast measures the full Local Broadcast stack on the
// Lemma 14 hard instance.
func BenchmarkT7LocalBroadcast(b *testing.B) {
	const delta, bits = 3, 16
	g, err := graph.HardInstance(2*delta, delta)
	if err != nil {
		b.Fatal(err)
	}
	inst := localbroadcast.NewHardInstance(g, delta, bits, rng.New(8))
	inner := wire.BitsFor(g.N())
	outer := core.AdapterMsgBits(g.N(), inner)
	p := core.DefaultParams(g.N(), delta, outer, 0.05)
	budget := core.CongestRounds(localbroadcast.CongestRoundsNeeded(bits, inner), delta)
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(core.WrapCongest(localbroadcast.NewAlgorithms(inst)), budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT8MatchingNative measures Algorithm 3 on the native engine.
func BenchmarkT8MatchingNative(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := mustRegular(b, n, 8, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := congest.NewBroadcastEngine(g, matching.MsgBits(n), uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run(matching.New(n), matching.MaxRounds(n))
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllDone {
					b.Fatal("did not terminate")
				}
			}
		})
	}
}

// BenchmarkT9MatchingBeeps measures the Theorem 21 pipeline end to end.
func BenchmarkT9MatchingBeeps(b *testing.B) {
	const n, delta = 32, 4
	g := mustRegular(b, n, delta, 11)
	p := core.DefaultParams(n, delta, matching.MsgBits(n), 0.1)
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
			Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := runner.Run(matching.New(n), matching.MaxRounds(n))
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllDone {
			b.Fatal("did not terminate")
		}
	}
}

// BenchmarkT10LowerBound measures the counting-bound calculators.
func BenchmarkT10LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = localbroadcast.Lemma14MinRounds(8, 32)
		_ = localbroadcast.Lemma14SuccessExponent(100, 8, 32)
		_ = localbroadcast.Theorem22SuccessExponent(64, 8, 256)
	}
}

// BenchmarkT11NativeMIS measures the beep-native MIS (the fast side of the
// §7 gap table).
func BenchmarkT11NativeMIS(b *testing.B) {
	g := mustRegular(b, 64, 8, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inSet, _, err := beepalgs.RunMIS(g, uint64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(inSet) != g.N() {
			b.Fatal("bad output length")
		}
	}
}

// BenchmarkA1Ablation measures a simulated round at the smallest viable
// repetition factor (the cheap end of table A1).
func BenchmarkA1Ablation(b *testing.B) {
	g := mustRegular(b, 32, 6, 13)
	p := core.DefaultParams(32, 6, 12, 0.1)
	p.R = 15
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 14})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(gossip(32), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2Codebook measures a simulated round in random-assignment mode
// with a large codebook (decode scans all M codewords).
func BenchmarkA2Codebook(b *testing.B) {
	g := mustRegular(b, 32, 6, 15)
	p := core.DefaultParams(32, 6, 12, 0.05)
	p.Assignment = core.AssignRandom
	p.M = 4096
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(gossip(32), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3Decoder measures the naive all-position decoder variant.
func BenchmarkA3Decoder(b *testing.B) {
	g := mustRegular(b, 32, 6, 17)
	p := core.DefaultParams(32, 6, 12, 0.1)
	p.DisableSoloFilter = true
	codes := mustCodes(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{Params: p, Codes: codes, ChannelSeed: uint64(i), AlgSeed: 18})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runner.Run(gossip(32), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentSuiteQuick runs the whole quick-size experiment suite
// once per iteration — the end-to-end regression canary.
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if _, err := e.Run(experiments.Config{Quick: true, Seed: uint64(i + 1)}); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// --- Parallel CSR engine benchmarks (DESIGN.md §2.9) ---
//
// BenchmarkEngine10kRandom and BenchmarkEngineHardInstance compare the
// seed's serial execution path (pointer-chased [][]int adjacency with a
// per-listener neighbor scan per round — reproduced verbatim in
// seedStyleRun below) against the CSR engine, serial and at
// Workers=GOMAXPROCS, on a 10k-node random graph and the Lemma 14
// K_{Δ,Δ} hard instance. The workload is the canonical contention shape
// (each node beeps with probability 1/(deg+1) per round); all variants
// execute bit-identical protocol work, so the delta is pure engine cost.

// benchBeeper beeps with probability 1/(deg+1) per round until a fixed
// horizon, the Luby-style contention workload.
type benchBeeper struct {
	env     beep.Env
	rng     rng.Stream
	horizon int
	rounds  int
	ones    int
	done    bool
}

func (c *benchBeeper) Init(env beep.Env) {
	c.env = env
	env.StreamInto(&c.rng)
}
func (c *benchBeeper) Step(round int) beep.Action {
	if c.rng.Bool(1 / float64(c.env.Degree+1)) {
		return beep.Beep
	}
	return beep.Listen
}
func (c *benchBeeper) Hear(round int, bit bool) {
	c.rounds++
	if bit {
		c.ones++
	}
	if c.rounds >= c.horizon {
		c.done = true
	}
}
func (c *benchBeeper) Done() bool  { return c.done }
func (c *benchBeeper) Output() any { return c.ones }

func benchBeepers(g *graph.Graph, horizon int) []beep.Program {
	progs := make([]beep.Program, g.N())
	for v := range progs {
		progs[v] = &benchBeeper{horizon: horizon}
	}
	return progs
}

// seedStyleRun reproduces the seed repository's serial beeping engine:
// [][]int adjacency (one heap object per vertex) and, for every listener
// every round, a linear scan of its neighbor list. It is the "before" in
// the engine benchmarks; the protocol semantics (and the per-node RNG
// streams) are identical to beep.Network's.
func seedStyleRun(b *testing.B, g *graph.Graph, adj [][]int, seed uint64, progs []beep.Program, maxRounds int) {
	b.Helper()
	n := g.N()
	maxDeg := g.MaxDegree()
	for v, p := range progs {
		p.Init(beep.Env{
			ID:        v,
			N:         n,
			Degree:    g.Degree(v),
			MaxDegree: maxDeg,
			Seed:      seed,
		})
	}
	beeped := bitstring.New(n)
	for round := 0; round < maxRounds; round++ {
		allDone := true
		for _, p := range progs {
			if !p.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		beeped.Reset()
		for v, p := range progs {
			if p.Done() {
				continue
			}
			if p.Step(round) == beep.Beep {
				beeped.Set(v)
			}
		}
		for v, p := range progs {
			if p.Done() {
				continue
			}
			bit := beeped.Get(v)
			if !bit {
				for _, u := range adj[v] {
					if beeped.Get(u) {
						bit = true
						break
					}
				}
			}
			p.Hear(round, bit)
		}
	}
}

func csrEngineRun(b *testing.B, g *graph.Graph, seed uint64, workers int, progs []beep.Program, maxRounds int) {
	b.Helper()
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := nw.Run(beep.PerNode(progs), maxRounds); err != nil {
		b.Fatal(err)
	}
}

// benchGraphEntry lazily builds one benchmark graph and its seed-style
// [][]int adjacency (built once, as the seed engine did at construction).
type benchGraphEntry struct {
	once  sync.Once
	build func() (*graph.Graph, error)
	g     *graph.Graph
	adj   [][]int
}

func (e *benchGraphEntry) get() (*graph.Graph, [][]int) {
	e.once.Do(func() {
		g, err := e.build()
		if err != nil {
			panic(err)
		}
		adj := make([][]int, g.N())
		for v := range adj {
			adj[v] = g.Neighbors(v)
		}
		e.g, e.adj = g, adj
	})
	return e.g, e.adj
}

var benchGraphs = map[string]*benchGraphEntry{
	"random": {build: func() (*graph.Graph, error) { // 10k-node random 16-regular
		return graph.RandomRegular(10000, 16, rng.New(41))
	}},
	"hard": {build: func() (*graph.Graph, error) { // K_{1024,1024} plus isolated vertices
		return graph.HardInstance(4096, 1024)
	}},
}

func benchGraph(b *testing.B, which string) (*graph.Graph, [][]int) {
	b.Helper()
	e, ok := benchGraphs[which]
	if !ok {
		b.Fatalf("unknown bench graph %q", which)
	}
	return e.get()
}

// benchEngineVariants runs the seed-vs-CSR comparison on g. The 2×-over-
// seed acceptance target for this refactor is the csr-parallel-vs-
// seed-serial ratio on the 10k random graph.
func benchEngineVariants(b *testing.B, g *graph.Graph, adj [][]int) {
	// Enough rounds that the per-round engine cost dominates the (shared,
	// identical) per-run init of n node environments.
	const rounds = 100
	b.Run("seed-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedStyleRun(b, g, adj, uint64(i), benchBeepers(g, rounds), rounds)
		}
	})
	b.Run("csr-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			csrEngineRun(b, g, uint64(i), 1, benchBeepers(g, rounds), rounds)
		}
	})
	b.Run("csr-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			csrEngineRun(b, g, uint64(i), engine.AutoWorkers, benchBeepers(g, rounds), rounds)
		}
	})
}

// BenchmarkEngine10kRandom: 10k nodes, 16-regular, 100 contention rounds.
func BenchmarkEngine10kRandom(b *testing.B) {
	g, adj := benchGraph(b, "random")
	benchEngineVariants(b, g, adj)
}

// BenchmarkEngineHardInstance: the Lemma 14 K_{Δ,Δ} instance at Δ=1024
// (over a million edges), where per-listener scans are at their worst.
func BenchmarkEngineHardInstance(b *testing.B) {
	g, adj := benchGraph(b, "hard")
	benchEngineVariants(b, g, adj)
}

// BenchmarkRunPhase10k measures the word-parallel batch path (Algorithm
// 1's phase shape) on the 10k graph: a 512-round window, every fourth
// node transmitting, ε=0.05, serial vs one worker per CPU.
func BenchmarkRunPhase10k(b *testing.B) {
	g, _ := benchGraph(b, "random")
	const window = 512
	mkPatterns := func() []*bitstring.BitString {
		r := rng.New(7)
		patterns := make([]*bitstring.BitString, g.N())
		for v := range patterns {
			if v%4 != 0 {
				continue
			}
			s := bitstring.New(window)
			for i := 0; i < window; i++ {
				if r.Bool(0.3) {
					s.Set(i)
				}
			}
			patterns[v] = s
		}
		return patterns
	}
	patterns := mkPatterns()
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", engine.AutoWorkers}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, err := beep.NewNetwork(g, beep.Params{Epsilon: 0.05, Seed: uint64(i), Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				// Fresh reception buffers each iteration, as a one-shot
				// window allocates them.
				received := make([]*bitstring.BitString, g.N())
				for v := range received {
					received[v] = bitstring.New(window)
				}
				if err := nw.RunPhaseInto(patterns, received, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepGrid64 measures the 64-scenario sweep grid end to end —
// n{32,64} × Δ{4,8} × ε{0.1,0.2} × {alg1,tdma} × 4 replicates through
// the batch scheduler against a fresh in-memory store, with the
// per-batch artifact cache sharing graphs and code tables across
// scenarios. This is the batch wall-time figure the PR 4 cache and
// hot-path work target (BENCH_PR4.json).
func BenchmarkSweepGrid64(b *testing.B) {
	scs, err := sweep.Grid{
		Families:   []string{sweep.FamilyRegular},
		Ns:         []int{32, 64},
		Params:     []int{4, 8},
		Epsilons:   []float64{0.1, 0.2},
		Engines:    []string{sweep.EngineAlg1, sweep.EngineTDMA},
		Workloads:  []string{sweep.WorkloadGossip},
		Rounds:     3,
		Replicates: 4,
		BaseSeed:   2023,
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{Jobs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Million-node sparse execution benchmarks (DESIGN.md §2.17) ---
//
// BenchmarkLargeSparseWave compares the dense per-round scan against the
// sparse active-set executor on the same workload: a 16-bit wave
// broadcast across a 1000×1000 grid (n = 10⁶, D = 1998). The two runs
// are pinned bit-identical (see internal/beep/sparse_test.go); the
// benchmark delta is pure executor cost. The ≥10× sparse-vs-dense
// acceptance target for the million-node PR reads off this pair
// (BENCH_PR9.json).

const largeSide = 1000 // n = largeSide² = 10⁶

var (
	largeGridOnce sync.Once
	largeGridG    *graph.Graph
)

// largeGridGraph lazily builds the shared 10⁶-node grid via the
// streaming sharded builder (never materializing an edge list).
func largeGridGraph(b *testing.B) *graph.Graph {
	b.Helper()
	largeGridOnce.Do(func() {
		g, err := graph.FromRowFunc(largeSide*largeSide,
			graph.GridRows(largeSide, largeSide),
			engine.AutoWorkers)
		if err != nil {
			panic(err)
		}
		largeGridG = g
	})
	return largeGridG
}

func benchLargeWave(b *testing.B, sparse bool) {
	b.Helper()
	g := largeGridGraph(b)
	const bits = 16
	msg := []byte{0xA5, 0x3C}
	dBound := 2 * (largeSide - 1) // the corner source's exact eccentricity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := beepalgs.RunWave(g, 0, msg, bits, dBound, uint64(i),
			beepalgs.WaveOptions{EarlyStop: true, Sparse: sparse})
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Payload(g.N() - 1); !wire.Equal(got, msg, bits) {
			b.Fatalf("far corner decoded %x, want %x", got, msg)
		}
	}
}

// BenchmarkLargeSparseWave: the n=10⁶ before/after pair. "dense" drives
// every node every round; "sparse" tracks the wave front through the
// active-set mask and fast-forwards quiescent spans.
func BenchmarkLargeSparseWave(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchLargeWave(b, false) })
	b.Run("sparse", func(b *testing.B) { benchLargeWave(b, true) })
}

// BenchmarkLargeSparseGen measures streaming CSR generation of the same
// 10⁶-node grid, serial vs sharded — the two-pass degree-count→fill
// builder is byte-identical for every worker count, so the delta is
// pure generation throughput.
func BenchmarkLargeSparseGen(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"sharded", engine.AutoWorkers}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.FromRowFunc(largeSide*largeSide,
					graph.GridRows(largeSide, largeSide),
					tc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if g.N() != largeSide*largeSide {
					b.Fatal("bad graph size")
				}
			}
		})
	}
}

// BenchmarkLargeGeoGen measures the geo family's build at n = 2^20,
// serial vs sharded. BenchmarkLargeSparseGen builds only grids, whose
// rows cost nothing to compute; a geo row reads jittered coordinates,
// which each chunk of each pass hashes once from its band of five
// lattice rows. The graph is byte-identical at every worker count.
func BenchmarkLargeGeoGen(b *testing.B) {
	const n = 1 << 20
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"sharded", engine.AutoWorkers}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.GeometricCells(n, 7, tc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if g.N() != n {
					b.Fatal("bad graph size")
				}
			}
		})
	}
}

// BenchmarkSweepReplicateHeavy measures the replicate-heavy grid lane
// groups target (BENCH_PR6.json): 4 hard-family axis points × 64
// replicates = 256 TDMA scenarios through the batch scheduler. The hard
// family derives its topology without GraphSeed, so each axis point's
// replicates share one sliceKey and run as the 64 lanes of one
// baseline.Runner pass. The call shape uses only sweep.Grid, sweep.Run
// and sweep.Options, so the same benchmark compiles on the tree before
// lanes existed for the before/after comparison.
//
// The grid runs a quiet channel (ε = 0) on purpose: replicates run as
// lanes only on channels that cannot flip a bit, because on noisy ones
// per-lane flip replay costs the same in either layout and the lane
// path measured slower than one replicate at a time (DESIGN.md §2.14).
func BenchmarkSweepReplicateHeavy(b *testing.B) {
	scs, err := sweep.Grid{
		Families:   []string{sweep.FamilyHard},
		Ns:         []int{48, 64},
		Params:     []int{6, 8},
		Epsilons:   []float64{0},
		Engines:    []string{sweep.EngineTDMA},
		Workloads:  []string{sweep.WorkloadGossip},
		Rounds:     3,
		Replicates: 64,
		BaseSeed:   2026,
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	if len(scs) != 256 {
		b.Fatalf("grid expanded to %d scenarios, want 256", len(scs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sweep.Run(scs, sweep.NewMemStore(), sweep.Options{Jobs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
