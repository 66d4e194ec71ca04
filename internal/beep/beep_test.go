package beep

import (
	"math"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
)

func TestNewNetworkValidation(t *testing.T) {
	g := graph.Path(3)
	for _, eps := range []float64{-0.1, 0.5, 0.9, math.NaN()} {
		if _, err := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: eps}}); err == nil {
			t.Errorf("ε=%v accepted", eps)
		}
	}
	if _, err := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.49}}); err != nil {
		t.Errorf("ε=0.49 rejected: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.Path(3)
	nw, _ := NewNetwork(g, Params{})
	if _, err := nw.Run(PerNode{&Transmitter{}}, 10); err == nil {
		t.Error("wrong program count accepted")
	}
	progs := []Program{&Transmitter{}, &Transmitter{}, &Transmitter{}}
	if _, err := nw.Run(PerNode(progs), -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestCarrierSense verifies the core reception rule: hear 1 iff at least
// one neighbor beeps (or self), with no multiplicity information.
func TestCarrierSense(t *testing.T) {
	// Star: center 0, leaves 1..3. Leaves 1,2 beep at round 0; leaf 3 and
	// center listen.
	g := graph.Star(4)
	nw, _ := NewNetwork(g, Params{})
	pat := func(bits string) *bitstring.BitString {
		s, err := bitstring.Parse(bits)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	progs := []Program{
		&Transmitter{Pattern: pat("00")},
		&Transmitter{Pattern: pat("10")},
		&Transmitter{Pattern: pat("10")},
		&Transmitter{Pattern: pat("00")},
	}
	res, err := nw.Run(PerNode(progs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || res.Rounds != 2 {
		t.Fatalf("run: allDone=%v rounds=%d", res.AllDone, res.Rounds)
	}
	// Center hears the superimposition of leaves: 1 in round 0 only.
	if got := progs[0].(*Transmitter).Heard().String(); got != "10" {
		t.Errorf("center heard %q, want \"10\"", got)
	}
	// Beeping leaves receive their own beep (paper convention).
	if got := progs[1].(*Transmitter).Heard().String(); got != "10" {
		t.Errorf("leaf 1 heard %q, want \"10\"", got)
	}
	// Leaf 3 hears nothing: its only neighbor (center) never beeps —
	// leaves are not mutually adjacent, carrier sense is local.
	if got := progs[3].(*Transmitter).Heard().String(); got != "00" {
		t.Errorf("leaf 3 heard %q, want \"00\"", got)
	}
}

func TestTotalBeepsAndHistory(t *testing.T) {
	g := graph.Path(2)
	nw, _ := NewNetwork(g, Params{RecordBeeps: true})
	a, _ := bitstring.Parse("110")
	b, _ := bitstring.Parse("010")
	if _, err := nw.Run(PerNode{&Transmitter{Pattern: a}, &Transmitter{Pattern: b}}, 10); err != nil {
		t.Fatal(err)
	}
	if nw.TotalBeeps() != 3 {
		t.Errorf("TotalBeeps = %d, want 3", nw.TotalBeeps())
	}
	hist := nw.BeepHistory()
	if len(hist) != 3 {
		t.Fatalf("history has %d rounds, want 3", len(hist))
	}
	// Round 0: only node 0 beeps; round 1: both; round 2: neither.
	if hist[0].String() != "10" || hist[1].String() != "11" || hist[2].String() != "00" {
		t.Errorf("history = %s %s %s", hist[0], hist[1], hist[2])
	}
}

func TestNoiseRateOnIsolatedListener(t *testing.T) {
	// A lone listening node hears silence; under ε-noise it must hear 1 at
	// rate ≈ ε.
	g := graph.MustFromEdges(1, nil)
	const eps, rounds = 0.2, 20000
	nw, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: eps}, Seed: 5})
	tx := &Transmitter{Rounds: rounds}
	if _, err := nw.Run(PerNode{tx}, rounds); err != nil {
		t.Fatal(err)
	}
	rate := float64(tx.Heard().Ones()) / rounds
	if rate < eps-0.02 || rate > eps+0.02 {
		t.Errorf("noise rate = %v, want ≈%v", rate, eps)
	}
}

func TestNoisyOwnConvention(t *testing.T) {
	// A node's own beep goes through the channel: beeping every round, it
	// receives ≈(1-ε) ones.
	g := graph.MustFromEdges(1, nil)
	const rounds = 5000
	nw, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.3}, Seed: 6})
	all := bitstring.New(rounds)
	all.SetRange(0, rounds)
	tx := &Transmitter{Pattern: all}
	if _, err := nw.Run(PerNode{tx}, rounds); err != nil {
		t.Fatal(err)
	}
	rate := float64(tx.Heard().Ones()) / rounds
	if rate < 0.65 || rate > 0.75 {
		t.Errorf("own-reception rate = %v, want ≈0.7", rate)
	}
}

func TestRunPhaseValidation(t *testing.T) {
	g := graph.Path(3)
	nw, _ := NewNetwork(g, Params{})
	if _, err := nw.RunPhase(make([]*bitstring.BitString, 2)); err == nil {
		t.Error("wrong pattern count accepted")
	}
	if _, err := nw.RunPhase(make([]*bitstring.BitString, 3)); err == nil {
		t.Error("all-nil patterns accepted")
	}
	pats := []*bitstring.BitString{bitstring.New(4), bitstring.New(5), nil}
	if _, err := nw.RunPhase(pats); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestRunPhaseNoiselessOR(t *testing.T) {
	// Triangle: every node's reception is the OR of all three patterns.
	g := graph.Complete(3)
	nw, _ := NewNetwork(g, Params{})
	p0, _ := bitstring.Parse("1000")
	p1, _ := bitstring.Parse("0100")
	var p2 *bitstring.BitString // silent
	got, err := nw.RunPhase([]*bitstring.BitString{p0, p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if got[v].String() != "1100" {
			t.Errorf("node %d received %s, want 1100", v, got[v])
		}
	}
	if nw.Round() != 4 {
		t.Errorf("Round = %d, want 4", nw.Round())
	}
	if nw.TotalBeeps() != 2 {
		t.Errorf("TotalBeeps = %d, want 2", nw.TotalBeeps())
	}
}

// TestRunPhaseEquivalence is the central engine test: the vectorized batch
// path must agree bit-for-bit with the generic round-by-round path on the
// same seed, across noise levels.
func TestRunPhaseEquivalence(t *testing.T) {
	const length = 257 // deliberately not word-aligned
	gr := graph.RandomBoundedDegree(24, 5, 0.2, rng.New(31))
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{name: "noiseless", p: Params{Seed: 9}},
		{name: "eps0.1", p: Params{Channel: noise.Symmetric{Eps: 0.1}, Seed: 9}},
		{name: "eps0.3 noisyOwn", p: Params{Channel: noise.Symmetric{Eps: 0.3}, Seed: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			patterns := make([]*bitstring.BitString, gr.N())
			patRng := rng.New(77)
			for v := range patterns {
				if v%5 == 0 {
					continue // some silent nodes
				}
				s := bitstring.New(length)
				for i := 0; i < length; i++ {
					if patRng.Bool(0.2) {
						s.Set(i)
					}
				}
				patterns[v] = s
			}

			nwBatch, _ := NewNetwork(gr, tc.p)
			batch, err := nwBatch.RunPhase(patterns)
			if err != nil {
				t.Fatal(err)
			}

			nwGeneric, _ := NewNetwork(gr, tc.p)
			progs := make([]Program, gr.N())
			for v := range progs {
				progs[v] = &Transmitter{Pattern: patterns[v], Rounds: length}
			}
			if _, err := nwGeneric.Run(PerNode(progs), length); err != nil {
				t.Fatal(err)
			}

			for v := 0; v < gr.N(); v++ {
				if !batch[v].Equal(progs[v].(*Transmitter).Heard()) {
					t.Fatalf("node %d: batch and generic paths disagree", v)
				}
			}
			if nwBatch.TotalBeeps() != nwGeneric.TotalBeeps() {
				t.Errorf("beep counts disagree: %d vs %d", nwBatch.TotalBeeps(), nwGeneric.TotalBeeps())
			}
		})
	}
}

func TestRunPhaseNoiseContinuityAcrossWindows(t *testing.T) {
	// Two consecutive RunPhase windows must equal one double-length window
	// under the same seed (noise is one continuous per-node stream).
	g := graph.Path(4)
	mk := func() []*bitstring.BitString {
		pats := make([]*bitstring.BitString, 4)
		r := rng.New(3)
		for v := range pats {
			s := bitstring.New(200)
			for i := 0; i < 200; i++ {
				if r.Bool(0.3) {
					s.Set(i)
				}
			}
			pats[v] = s
		}
		return pats
	}
	full := mk()
	nwOne, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.2}, Seed: 12})
	whole, err := nwOne.RunPhase(full)
	if err != nil {
		t.Fatal(err)
	}

	nwTwo, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.2}, Seed: 12})
	first := make([]*bitstring.BitString, 4)
	second := make([]*bitstring.BitString, 4)
	for v, p := range mk() {
		a := bitstring.New(100)
		b := bitstring.New(100)
		for i := 0; i < 100; i++ {
			a.SetBool(i, p.Get(i))
			b.SetBool(i, p.Get(i+100))
		}
		first[v], second[v] = a, b
	}
	got1, err := nwTwo.RunPhase(first)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := nwTwo.RunPhase(second)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		for i := 0; i < 100; i++ {
			if whole[v].Get(i) != got1[v].Get(i) || whole[v].Get(i+100) != got2[v].Get(i) {
				t.Fatalf("node %d: windowed and whole runs disagree", v)
			}
		}
	}
}

func TestAlarmFloodDistances(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{name: "path", g: graph.Path(10)},
		{name: "grid", g: graph.Grid(4, 5)},
		{name: "hypercube", g: graph.Hypercube(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, _ := NewNetwork(tc.g, Params{})
			progs := make([]Program, tc.g.N())
			for v := range progs {
				progs[v] = &AlarmFlood{Source: v == 0}
			}
			if _, err := nw.Run(PerNode(progs), tc.g.N()+2); err != nil {
				t.Fatal(err)
			}
			dist := tc.g.BFS(0)
			for v := 0; v < tc.g.N(); v++ {
				if got := progs[v].(*AlarmFlood).RelayRound(); got != int(dist[v]) {
					t.Errorf("node %d activated at %d, want BFS distance %d", v, got, dist[v])
				}
			}
		})
	}
}

func TestAlarmFloodUnreachable(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}})
	nw, _ := NewNetwork(g, Params{})
	progs := []Program{&AlarmFlood{Source: true}, &AlarmFlood{}, &AlarmFlood{}}
	res, err := nw.Run(PerNode(progs), 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDone {
		t.Error("disconnected flood reported all done")
	}
	if got := progs[2].(*AlarmFlood).RelayRound(); got != -1 {
		t.Errorf("isolated node activated at %d, want -1", got)
	}
}

func TestRobustFloodUnderNoise(t *testing.T) {
	g := graph.Path(6)
	nw, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.2}, Seed: 21})
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = &RobustFlood{Source: v == 0, FrameLen: 32}
	}
	if _, err := nw.Run(PerNode(progs), 32*20); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		got := progs[v].(*RobustFlood).ActivationFrame()
		if got != v {
			t.Errorf("node %d activated at frame %d, want %d (one hop per frame)", v, got, v)
		}
	}
}

func TestRobustFloodNoFalseActivationWithoutSource(t *testing.T) {
	g := graph.Path(4)
	nw, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.2}, Seed: 22})
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = &RobustFlood{FrameLen: 32} // nobody is a source
	}
	if _, err := nw.Run(PerNode(progs), 32*10); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if got := progs[v].(*RobustFlood).ActivationFrame(); got != -1 {
			t.Errorf("node %d falsely activated at frame %d under pure noise", v, got)
		}
	}
}

func BenchmarkRunPhase(b *testing.B) {
	g := graph.RandomBoundedDegree(128, 8, 0.1, rng.New(41))
	patterns := make([]*bitstring.BitString, g.N())
	r := rng.New(42)
	for v := range patterns {
		s := bitstring.New(4096)
		for i := 0; i < 4096; i++ {
			if r.Bool(0.1) {
				s.Set(i)
			}
		}
		patterns[v] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, _ := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.05}, Seed: uint64(i)})
		if _, err := nw.RunPhase(patterns); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunPhaseParallelEquivalence: the worker-parallel batch path must be
// bit-identical to the serial path under every noise setting.
func TestRunPhaseParallelEquivalence(t *testing.T) {
	const length = 321
	gr := graph.RandomBoundedDegree(40, 6, 0.15, rng.New(51))
	mkPatterns := func() []*bitstring.BitString {
		patterns := make([]*bitstring.BitString, gr.N())
		patRng := rng.New(88)
		for v := range patterns {
			if v%4 == 0 {
				continue
			}
			s := bitstring.New(length)
			for i := 0; i < length; i++ {
				if patRng.Bool(0.25) {
					s.Set(i)
				}
			}
			patterns[v] = s
		}
		return patterns
	}
	for _, eps := range []float64{0, 0.15} {
		serialNW, _ := NewNetwork(gr, Params{Channel: noise.Symmetric{Eps: eps}, Seed: 13})
		serial, err := serialNW.RunPhase(mkPatterns())
		if err != nil {
			t.Fatal(err)
		}
		parallelNW, _ := NewNetwork(gr, Params{Channel: noise.Symmetric{Eps: eps}, Seed: 13, Workers: 8})
		parallel, err := parallelNW.RunPhase(mkPatterns())
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < gr.N(); v++ {
			if !serial[v].Equal(parallel[v]) {
				t.Fatalf("eps=%v: node %d differs between serial and parallel paths", eps, v)
			}
		}
		if serialNW.TotalBeeps() != parallelNW.TotalBeeps() {
			t.Errorf("eps=%v: beep counts differ", eps)
		}
	}
}

// contender is a randomized beeping program exercising the full engine:
// each round it beeps with probability 1/(deg+1) from its private stream,
// records every received bit, and finishes after a fixed horizon. It is
// the workload shape of Luby-style beeping algorithms.
type contender struct {
	env     Env
	rng     rng.Stream
	horizon int
	heard   []bool
	done    bool
}

func (c *contender) Init(env Env) {
	c.env = env
	env.StreamInto(&c.rng)
}
func (c *contender) Step(round int) Action {
	if c.rng.Bool(1 / float64(c.env.Degree+1)) {
		return Beep
	}
	return Listen
}
func (c *contender) Hear(round int, bit bool) {
	c.heard = append(c.heard, bit)
	if len(c.heard) >= c.horizon {
		c.done = true
	}
}
func (c *contender) Done() bool  { return c.done }
func (c *contender) Output() any { return append([]bool(nil), c.heard...) }

// TestRunSerialParallelIdentical: Run with Workers>1 must be bit-identical
// to the serial run — same outputs, same round count, same energy, and the
// same per-round beep transcript — for every worker count and noise
// level.
func TestRunSerialParallelIdentical(t *testing.T) {
	gr := graph.RandomBoundedDegree(150, 7, 0.05, rng.New(99))
	const horizon = 40
	runOnce := func(workers int, eps float64) (outcome, []*bitstring.BitString, int64) {
		nw, err := NewNetwork(gr, Params{
			Channel:     noise.Symmetric{Eps: eps},
			Seed:        7,
			RecordBeeps: true,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]Program, gr.N())
		for v := range progs {
			progs[v] = &contender{horizon: horizon}
		}
		res, err := nw.Run(PerNode(progs), horizon+5)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res, outputs(progs)}, nw.BeepHistory(), nw.TotalBeeps()
	}
	for _, eps := range []float64{0, 0.2} {
		wantRes, wantHist, wantBeeps := runOnce(1, eps)
		for _, cfg := range []int{2, 4, 8, 3} {
			res, hist, beeps := runOnce(cfg, eps)
			if res.Rounds != wantRes.Rounds || res.AllDone != wantRes.AllDone {
				t.Fatalf("eps=%v workers=%v: result shape differs: %+v vs %+v", eps, cfg, res, wantRes)
			}
			if beeps != wantBeeps {
				t.Fatalf("eps=%v workers=%v: TotalBeeps %d vs %d", eps, cfg, beeps, wantBeeps)
			}
			if len(hist) != len(wantHist) {
				t.Fatalf("eps=%v workers=%v: history length %d vs %d", eps, cfg, len(hist), len(wantHist))
			}
			for i := range hist {
				if !hist[i].Equal(wantHist[i]) {
					t.Fatalf("eps=%v workers=%v: beep transcript differs at round %d", eps, cfg, i)
				}
			}
			for v := range res.Outputs {
				got := res.Outputs[v].([]bool)
				want := wantRes.Outputs[v].([]bool)
				if len(got) != len(want) {
					t.Fatalf("eps=%v workers=%v: node %d heard %d bits vs %d", eps, cfg, v, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("eps=%v workers=%v: node %d reception differs at round %d", eps, cfg, v, i)
					}
				}
			}
		}
	}
}

// TestRunBitsetPropagationSemantics pins the carrier-sense semantics the
// bitset path must preserve on a star: center beep reaches all leaves, leaf beep
// reaches only the center, and simultaneous leaf beeps do not sum.
func TestRunBitsetPropagationSemantics(t *testing.T) {
	gr := graph.Star(6)
	nw, err := NewNetwork(gr, Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]*bitstring.BitString, 6)
	// Round 0: leaves 1 and 2 beep. Round 1: center beeps. Round 2: silence.
	for v := 1; v <= 2; v++ {
		patterns[v] = bitstring.New(3)
		patterns[v].Set(0)
	}
	patterns[0] = bitstring.New(3)
	patterns[0].Set(1)
	got, err := nw.RunPhase(patterns)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		wantR0 := v == 0 || v == 1 || v == 2 // center hears leaves; beepers hear themselves
		wantR1 := true                       // center's beep reaches everyone (and itself)
		if got[v].Get(0) != wantR0 || got[v].Get(1) != wantR1 || got[v].Get(2) {
			t.Fatalf("node %d received %v", v, got[v])
		}
	}
}

// TestRunPhaseIntoMatchesRunPhase: the buffer-reusing batch path must
// reproduce RunPhase bit for bit — same receptions, same noise stream
// consumption across consecutive windows — while fully overwriting dirty
// destination buffers.
func TestRunPhaseIntoMatchesRunPhase(t *testing.T) {
	g, err := graph.RandomRegular(18, 4, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	const window, seed = 96, 77
	mkPatterns := func(round int) []*bitstring.BitString {
		r := rng.New(uint64(round + 1))
		patterns := make([]*bitstring.BitString, g.N())
		for v := range patterns {
			if v%3 == round%3 {
				continue // silent this window
			}
			s := bitstring.New(window)
			for i := 0; i < window; i++ {
				if r.Bool(0.2) {
					s.Set(i)
				}
			}
			patterns[v] = s
		}
		return patterns
	}
	nwA, err := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.1}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	nwB, err := NewNetwork(g, Params{Channel: noise.Symmetric{Eps: 0.1}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]*bitstring.BitString, g.N())
	for v := range dst {
		dst[v] = bitstring.New(window)
		dst[v].SetRange(0, dst[v].Len()) // dirty: RunPhaseInto must overwrite
	}
	for round := 0; round < 3; round++ {
		patterns := mkPatterns(round)
		want, err := nwA.RunPhase(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if err := nwB.RunPhaseInto(patterns, dst, nil); err != nil {
			t.Fatal(err)
		}
		for v := range dst {
			if !dst[v].Equal(want[v]) {
				t.Fatalf("round %d node %d: RunPhaseInto differs from RunPhase", round, v)
			}
		}
	}
	if nwA.TotalBeeps() != nwB.TotalBeeps() || nwA.Round() != nwB.Round() {
		t.Fatalf("counters diverged: beeps %d vs %d, rounds %d vs %d",
			nwA.TotalBeeps(), nwB.TotalBeeps(), nwA.Round(), nwB.Round())
	}
}

// TestRunPhaseIntoValidation: bad destination sets must be rejected.
func TestRunPhaseIntoValidation(t *testing.T) {
	g := graph.Path(3)
	nw, err := NewNetwork(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []*bitstring.BitString{bitstring.New(8), nil, nil}
	if err := nw.RunPhaseInto(patterns, make([]*bitstring.BitString, 2), nil); err == nil {
		t.Error("wrong dst count accepted")
	}
	dst := []*bitstring.BitString{bitstring.New(8), bitstring.New(7), bitstring.New(8)}
	if err := nw.RunPhaseInto(patterns, dst, nil); err == nil {
		t.Error("wrong dst length accepted")
	}
	dst[1] = nil
	if err := nw.RunPhaseInto(patterns, dst, nil); err == nil {
		t.Error("nil dst buffer accepted")
	}
}
