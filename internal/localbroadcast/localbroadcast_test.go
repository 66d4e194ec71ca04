package localbroadcast

import (
	"testing"

	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestCongestUpperBound(t *testing.T) {
	// Lemma 15: B-bit Local Broadcast in ⌈B/bits⌉ CONGEST rounds, each of
	// which Corollary 12's adapter spends Δ broadcast rounds on after one
	// discovery round.
	g := graph.RandomBoundedDegree(30, 5, 0.15, rng.New(1))
	const b, msgBits = 40, 12
	inst := NewRandomInstance(g, b, rng.New(2))
	eng, err := congest.NewBroadcastEngine(g, core.AdapterMsgBits(g.N(), msgBits), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WrapCongest(NewAlgorithms(inst)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.CongestRounds(CongestRoundsNeeded(b, msgBits), g.MaxDegree()); res.Rounds != want {
		t.Errorf("used %d broadcast rounds, want %d", res.Rounds, want)
	}
	if err := Verify(g, inst, res.Outputs); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastCongestUpperBound(t *testing.T) {
	// Lemma 15 via Corollary 12's adapter: O(Δ·⌈B/bits⌉) broadcast rounds.
	g := graph.RandomBoundedDegree(20, 4, 0.2, rng.New(4))
	const b, inner = 24, 8
	inst := NewRandomInstance(g, b, rng.New(5))
	outer := core.AdapterMsgBits(g.N(), inner)
	eng, err := congest.NewBroadcastEngine(g, outer, 6)
	if err != nil {
		t.Fatal(err)
	}
	budget := core.CongestRounds(CongestRoundsNeeded(b, inner), g.MaxDegree())
	res, err := eng.Run(core.WrapCongest(NewAlgorithms(inst)), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatalf("did not finish in %d broadcast rounds", budget)
	}
	if err := Verify(g, inst, res.Outputs); err != nil {
		t.Fatal(err)
	}
}

func TestLocalBroadcastOverNoisyBeeps(t *testing.T) {
	// The full stack on the hard instance: CONGEST → Broadcast CONGEST →
	// noisy beeps, verified against the inputs.
	g, err := graph.HardInstance(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	const b, inner = 16, 8
	inst := NewHardInstance(g, 3, b, rng.New(7))
	outer := core.AdapterMsgBits(g.N(), inner)
	runner, err := core.NewBroadcastRunner(g, core.RunnerConfig{
		Params:      core.DefaultParams(g.N(), g.MaxDegree(), outer, 0.05),
		ChannelSeed: 8,
		AlgSeed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	budget := core.CongestRounds(CongestRoundsNeeded(b, inner), g.MaxDegree())
	res, err := runner.Run(core.WrapCongest(NewAlgorithms(inst)), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("did not finish over beeps")
	}
	if err := Verify(g, inst, res.Outputs); err != nil {
		t.Fatal(err)
	}
}

func TestHardInstanceShape(t *testing.T) {
	g, _ := graph.HardInstance(10, 2)
	inst := NewHardInstance(g, 2, 8, rng.New(10))
	// Right-part messages (IDs ≥ Δ) are all zero.
	for v := 2; v < 10; v++ {
		for _, m := range inst.Msgs[v] {
			for _, byteVal := range m {
				if byteVal != 0 {
					t.Fatalf("right/isolated node %d has non-zero message", v)
				}
			}
		}
	}
	// Left-part nodes have Δ messages each.
	for v := 0; v < 2; v++ {
		if len(inst.Msgs[v]) != 2 {
			t.Errorf("left node %d has %d messages, want 2", v, len(inst.Msgs[v]))
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := graph.Path(3)
	inst := NewRandomInstance(g, 16, rng.New(11))
	eng, err := congest.NewBroadcastEngine(g, core.AdapterMsgBits(g.N(), 16), 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WrapCongest(NewAlgorithms(inst)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, inst, res.Outputs); err != nil {
		t.Fatal(err)
	}
	// Corrupt one received message.
	got := res.Outputs[0].(map[int][]byte)
	got[1][0] ^= 0xff
	if err := Verify(g, inst, res.Outputs); err == nil {
		t.Error("corrupted output accepted")
	}
}

func TestBoundCalculators(t *testing.T) {
	if got := Lemma14MinRounds(4, 10); got != 80 {
		t.Errorf("Lemma14MinRounds(4,10) = %d, want 80", got)
	}
	if got := Lemma14SuccessExponent(50, 4, 10); got != 50-160 {
		t.Errorf("Lemma14SuccessExponent = %v", got)
	}
	// More rounds → weaker bound; vacuous once T ≥ Δ²B.
	if Lemma14SuccessExponent(200, 4, 10) < 0 {
		t.Error("bound should be vacuous at T=200")
	}
	// Theorem 22: r = Δ·log₂ n gives exponent −2Δ·log₂ n.
	got := Theorem22SuccessExponent(4*8, 4, 256)
	if got != 32-96 {
		t.Errorf("Theorem22SuccessExponent = %v, want -64", got)
	}
	if got := CongestRoundsNeeded(33, 8); got != 5 {
		t.Errorf("CongestRoundsNeeded(33,8) = %d, want 5", got)
	}
}

func TestRightTranscript(t *testing.T) {
	mk := func(bits string) *bitstring.BitString {
		s, err := bitstring.Parse(bits)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// 4 nodes, delta=2: rounds where node 0 or 1 beeped count as B.
	h1 := []*bitstring.BitString{mk("1000"), mk("0010"), mk("0100")}
	h2 := []*bitstring.BitString{mk("1000"), mk("0010"), mk("0101")}
	h3 := []*bitstring.BitString{mk("0010"), mk("0010"), mk("0100")}
	// h1 and h2 look identical to the right part; h3 does not.
	r1, r2, r3 := RightTranscript(h1, 2), RightTranscript(h2, 2), RightTranscript(h3, 2)
	if r1 != r2 || r1 == r3 {
		t.Errorf("right transcripts %q, %q, %q: want the first two equal and the third different", r1, r2, r3)
	}
}
