package beep

import (
	"testing"

	"repro/internal/bitstring"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
)

// channelModels is one instance of every pluggable model, at rates high
// enough that every code path (flips on both bit values, bursts, the
// protect mask) is exercised.
func channelModels() map[string]noise.Model {
	return map[string]noise.Model{
		"asymmetric":      noise.Asymmetric{P01: 0.05, P10: 0.25},
		"erasure-read0":   noise.Erasure{Q: 0.2},
		"erasure-read1":   noise.Erasure{Q: 0.2, ReadAs1: true},
		"gilbert-elliott": noise.GilbertElliott{PGood: 0.02, PBad: 0.6, PGoodToBad: 0.1, PBadToGood: 0.3},
	}
}

func noisePatterns(g *graph.Graph, length int, seed uint64) []*bitstring.BitString {
	patterns := make([]*bitstring.BitString, g.N())
	patRng := rng.New(seed)
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
	return patterns
}

// historicEps is the beep layer's original ε channel, written out as a
// model: each listener flips with one geometric sampler over the stream
// rng.New(seed).Split("noise", node).
type historicEps struct{ noise.Symmetric }

func (m historicEps) Sampler(seed uint64, node int) noise.Sampler {
	return historicSampler{rng.NewFlipSampler(rng.New(seed).Split(0x6e6f697365, uint64(node)), m.Eps)}
}

type historicSampler struct{ fs *rng.FlipSampler }

func (s historicSampler) ApplyInto(words []uint64, start, end int) {
	s.fs.XorFlipsInto(words, start, end)
}

// TestNoiseModelSymmetricByteIdentical pins the model's anchor at the
// network level: a Symmetric{ε} channel is bit-for-bit the historic ε
// channel, on both execution paths.
func TestNoiseModelSymmetricByteIdentical(t *testing.T) {
	const length = 257
	gr := graph.RandomBoundedDegree(24, 5, 0.2, rng.New(31))
	legacy := Params{Channel: historicEps{noise.Symmetric{Eps: 0.17}}, Seed: 9}
	model := Params{Channel: noise.Symmetric{Eps: 0.17}, Seed: 9}

	nwA, err := NewNetwork(gr, legacy)
	if err != nil {
		t.Fatal(err)
	}
	nwB, err := NewNetwork(gr, model)
	if err != nil {
		t.Fatal(err)
	}
	a, err := nwA.RunPhase(noisePatterns(gr, length, 77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := nwB.RunPhase(noisePatterns(gr, length, 77))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if !a[v].Equal(b[v]) {
			t.Fatalf("node %d receptions differ between ε and Symmetric{ε}", v)
		}
	}

	// The round-by-round path too.
	runA, err := NewNetwork(gr, legacy)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := NewNetwork(gr, model)
	if err != nil {
		t.Fatal(err)
	}
	progsA := make([]Program, gr.N())
	progsB := make([]Program, gr.N())
	for v := range progsA {
		progsA[v] = &contender{horizon: 60}
		progsB[v] = &contender{horizon: 60}
	}
	resA, err := runA.Run(PerNode(progsA), 60)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := runB.Run(PerNode(progsB), 60)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rounds != resB.Rounds {
		t.Fatal("round counts differ")
	}
	for v := range progsA {
		ha := progsA[v].(*contender).Output().([]bool)
		hb := progsB[v].(*contender).Output().([]bool)
		if len(ha) != len(hb) {
			t.Fatalf("node %d transcript lengths differ", v)
		}
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("node %d transcripts differ at round %d", v, i)
			}
		}
	}
}

// TestRunPhaseEquivalenceNoiseModels extends the batch ≡ generic
// equivalence to every pluggable model: RunPhase's ApplyInto windows and
// Run's per-round one-slot ApplyInto deliveries must agree bit-for-bit.
func TestRunPhaseEquivalenceNoiseModels(t *testing.T) {
	const length = 257
	gr := graph.RandomBoundedDegree(24, 5, 0.2, rng.New(31))
	for label, m := range channelModels() {
		p := Params{Channel: m, Seed: 9}
		patterns := noisePatterns(gr, length, 77)

		nwBatch, err := NewNetwork(gr, p)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := nwBatch.RunPhase(patterns)
		if err != nil {
			t.Fatal(err)
		}

		nwGeneric, err := NewNetwork(gr, p)
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]Program, gr.N())
		for v := range progs {
			progs[v] = &Transmitter{Pattern: patterns[v], Rounds: length}
		}
		if _, err := nwGeneric.Run(PerNode(progs), length); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < gr.N(); v++ {
			if !batch[v].Equal(progs[v].(*Transmitter).Heard()) {
				t.Fatalf("%s: node %d: batch and generic paths disagree", label, v)
			}
		}
	}
}

// TestRunPhaseParallelEquivalenceNoiseModels is the per-model serial ≡
// parallel bit-identity test: worker parallelism never changes a single
// reception bit under any channel model.
func TestRunPhaseParallelEquivalenceNoiseModels(t *testing.T) {
	const length = 321
	gr := graph.RandomBoundedDegree(40, 6, 0.15, rng.New(51))
	for label, m := range channelModels() {
		serialNW, err := NewNetwork(gr, Params{Channel: m, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := serialNW.RunPhase(noisePatterns(gr, length, 88))
		if err != nil {
			t.Fatal(err)
		}
		parallelNW, err := NewNetwork(gr, Params{Channel: m, Seed: 13, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := parallelNW.RunPhase(noisePatterns(gr, length, 88))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < gr.N(); v++ {
			if !serial[v].Equal(parallel[v]) {
				t.Fatalf("%s: node %d differs between serial and parallel paths", label, v)
			}
		}
		if serialNW.TotalBeeps() != parallelNW.TotalBeeps() {
			t.Errorf("%s: beep counts differ", label)
		}
	}
}

// TestNoiseModelContinuityAcrossWindows: every model's noise is one
// continuous per-node process — two half windows equal one whole window.
// This is the property that makes the Gilbert–Elliott state machine (and
// every sampler's stale-position handling) safe under the runner's
// phase-by-phase execution.
func TestNoiseModelContinuityAcrossWindows(t *testing.T) {
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
	for label, m := range channelModels() {
		full := mk()
		nwOne, err := NewNetwork(g, Params{Channel: m, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := nwOne.RunPhase(full)
		if err != nil {
			t.Fatal(err)
		}
		nwTwo, err := NewNetwork(g, Params{Channel: m, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
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
					t.Fatalf("%s: node %d: windowed and whole runs disagree", label, v)
				}
			}
		}
	}
}

// TestNewNetworkNoiseValidation: invalid models are rejected at
// construction.
func TestNewNetworkNoiseValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewNetwork(g, Params{Channel: noise.Asymmetric{P01: 0.7, P10: 0.1}}); err == nil {
		t.Error("invalid model was accepted")
	}
	if _, err := NewNetwork(g, Params{Channel: noise.GilbertElliott{PGood: 0.01, PBad: 0.4, PGoodToBad: 0.05, PBadToGood: 0.25}}); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}
