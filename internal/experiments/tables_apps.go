package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/localbroadcast"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/wire"
)

// T7LocalBroadcast runs B-bit Local Broadcast on the Lemma 14 hard
// instance through the full stack and compares the beep rounds used
// against the Ω(Δ²B) lower bound.
func T7LocalBroadcast(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T7",
		Title:   "B-bit Local Broadcast on K_{Δ,Δ}: measured cost vs Ω(Δ²B) (Lemmas 14–15, Corollary 16)",
		Claim:   "Local Broadcast needs Ω(Δ²B) beep rounds; the pipeline achieves O(Δ²⌈B/log n⌉·log n), optimal up to constants",
		Columns: []string{"Δ", "B", "beep rounds", "lower bound Δ²B/2", "gap factor", "correct"},
	}
	configs := []struct{ delta, b int }{
		{delta: 2, b: 16},
		{delta: 3, b: 16},
		{delta: 4, b: 16},
		{delta: 4, b: 32},
	}
	if cfg.Quick {
		configs = configs[:2]
	}
	for i, tc := range configs {
		n := 2 * tc.delta
		g, err := graph.HardInstance(n, tc.delta)
		if err != nil {
			return nil, err
		}
		inst := localbroadcast.NewHardInstance(g, tc.delta, tc.b, rng.New(cfg.Seed+uint64(i)))
		inner := wire.BitsFor(n)
		outer := core.AdapterMsgBits(n, inner)
		runner, err := newRunner(cfg, g, core.RunnerConfig{
			Params:      core.DefaultParams(n, tc.delta, outer, 0.05),
			ChannelSeed: cfg.Seed + 10 + uint64(i),
			AlgSeed:     cfg.Seed + 11,
		})
		if err != nil {
			return nil, err
		}
		budget := core.CongestRounds(localbroadcast.CongestRoundsNeeded(tc.b, inner), tc.delta)
		res, err := runner.Run(core.WrapCongest(localbroadcast.NewAlgorithms(inst)), budget)
		if err != nil {
			return nil, err
		}
		correct := res.AllDone && localbroadcast.Verify(g, inst, res.Outputs) == nil
		bound := localbroadcast.Lemma14MinRounds(tc.delta, tc.b)
		t.Rows = append(t.Rows, []string{
			f("%d", tc.delta), f("%d", tc.b),
			f("%d", res.BeepRounds), f("%d", bound),
			f("%.0fx", float64(res.BeepRounds)/float64(bound)),
			f("%v", correct),
		})
	}
	t.Notes = append(t.Notes,
		"gap factor is the O(log n · constants) slack between the achievable upper bound and the information-theoretic floor")
	return t, nil
}

// T8MatchingNative measures Lemma 20: Algorithm 3 terminates within
// O(log n) Broadcast CONGEST rounds, across sizes and seeds. A thin view
// over sweep records: one native-CONGEST scenario per (n, seed); a run
// that did not finish contributes no rounds to the mean.
func T8MatchingNative(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T8",
		Title:   "Maximal matching in Broadcast CONGEST (Algorithm 3, Lemma 20)",
		Claim:   "Algorithm 3 produces a maximal matching in O(log n) rounds w.h.p.",
		Columns: []string{"n", "Δ", "seeds", "mean rounds", "rounds/log₂n", "all valid"},
	}
	ns := []int{64, 256, 1024, 4096}
	seeds := 5
	if cfg.Quick {
		ns = []int{64, 256}
		seeds = 2
	}
	var scs []sweep.Scenario
	for _, n := range ns {
		for s := 0; s < seeds; s++ {
			scs = append(scs, sweep.Scenario{
				Family: sweep.FamilyRegular, N: n, Param: 8,
				Engine: sweep.EngineCongest, Workload: sweep.WorkloadMatching,
				GraphSeed: cfg.Seed + uint64(n+s),
				AlgSeed:   cfg.Seed + uint64(s),
			})
		}
	}
	recs, err := runSweep(cfg, scs)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, n := range ns {
		var rounds []float64
		valid := true
		for _, rec := range recs[i*seeds : (i+1)*seeds] {
			valid = valid && outputOK(rec)
			if rec.Counters.AllDone {
				rounds = append(rounds, float64(rec.Counters.SimRounds))
			}
		}
		mean := stats.Mean(rounds)
		logn := math.Log2(float64(n))
		t.Rows = append(t.Rows, []string{
			f("%d", n), "8", f("%d", seeds),
			f("%.1f", mean), f("%.2f", mean/logn), f("%v", valid),
		})
		xs = append(xs, logn)
		ys = append(ys, mean)
	}
	if slope, _, err := stats.LinearFit(xs, ys); err == nil {
		t.Notes = append(t.Notes, f("rounds grow ≈ %.1f·log₂ n (linear in log n, as Lemma 20 predicts)", slope))
	}
	return t, nil
}

// T9MatchingBeeps is Theorem 21 end-to-end: maximal matching over the
// noisy beeping model in O(Δ log² n) rounds. A thin view over sweep
// records: one Algorithm 1 scenario per configuration.
func T9MatchingBeeps(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T9",
		Title:   "Maximal matching in the noisy beeping model (Theorem 21)",
		Claim:   "maximal matching in O(Δ log² n) noisy-beep rounds, w.h.p. correct",
		Columns: []string{"n", "Δ", "ε", "beep rounds", "per Δ·log₂²n", "decode errs", "valid"},
	}
	const eps = 0.1
	configs := []struct{ n, delta int }{
		{n: 16, delta: 4},
		{n: 32, delta: 4},
		{n: 32, delta: 6},
		{n: 64, delta: 6},
	}
	if cfg.Quick {
		configs = configs[:2]
	}
	var scs []sweep.Scenario
	for i, tc := range configs {
		scs = append(scs, sweep.Scenario{
			Family: sweep.FamilyRegular, N: tc.n, Param: tc.delta, Epsilon: eps,
			Engine: sweep.EngineAlg1, Workload: sweep.WorkloadMatching,
			GraphSeed:   cfg.Seed + uint64(i),
			ChannelSeed: cfg.Seed + 70 + uint64(i),
			AlgSeed:     cfg.Seed + 71,
		})
	}
	recs, err := runSweep(cfg, scs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		delta, beeps := rec.Graph.MaxDegree, rec.Counters.BeepRounds
		logn := math.Log2(float64(rec.Spec.N))
		t.Rows = append(t.Rows, []string{
			f("%d", rec.Spec.N), f("%d", delta), f("%.2f", eps),
			f("%d", beeps),
			f("%.0f", float64(beeps)/(float64(delta)*logn*logn)),
			f("%d", rec.Counters.MessageErrors),
			f("%v", outputOK(rec)),
		})
	}
	return t, nil
}

// T10LowerBounds tabulates the counting bounds (Lemma 14, Theorem 22) and
// demonstrates the transcript argument concretely: distinct hard-instance
// inputs induce distinct right-part transcripts.
func T10LowerBounds(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T10",
		Title:   "Lower-bound counting arguments (Lemma 14, Theorem 22)",
		Claim:   "T-round algorithms succeed w.p. ≤ 2^{T−Δ²B} on Local Broadcast; r-round matching on K_{Δ,Δ} succeeds w.p. ≤ 2^r/n^{3Δ}",
		Columns: []string{"Δ", "B", "info needed Δ²B", "rounds for p=1", "log₂ p at Δ²B/2 rounds", "Thm22 log₂ p (r=Δ·log n, n=256)"},
	}
	for _, tc := range []struct{ delta, b int }{
		{delta: 2, b: 16},
		{delta: 4, b: 16},
		{delta: 4, b: 32},
		{delta: 8, b: 32},
	} {
		need := tc.delta * tc.delta * tc.b
		half := localbroadcast.Lemma14MinRounds(tc.delta, tc.b)
		r := tc.delta * 8 // Δ·log₂ 256
		t.Rows = append(t.Rows, []string{
			f("%d", tc.delta), f("%d", tc.b),
			f("%d", need), f("%d", need),
			f("%.0f", localbroadcast.Lemma14SuccessExponent(half, tc.delta, tc.b)),
			f("%.0f", localbroadcast.Theorem22SuccessExponent(r, tc.delta, 256)),
		})
	}

	// Transcript demonstration: run the pipeline on the hard instance for
	// several random inputs; distinct inputs must induce distinct
	// right-part transcripts (that is the only channel information flows
	// through).
	const delta, b = 2, 8
	inputs := 12
	if cfg.Quick {
		inputs = 4
	}
	g, err := graph.HardInstance(2*delta, delta)
	if err != nil {
		return nil, err
	}
	count, err := transcriptDemo(cfg, g, delta, b, inputs)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		f("transcript demo: %d distinct random left-part inputs induced %d distinct right-part transcripts (information flows only through the beep/silence pattern)", inputs, count),
		"rounds-for-p=1 equals Δ²B: below it, success probability decays exponentially — no simulation can beat Ω(Δ²B) for B=Θ(Δ log n)·… (Corollary 16)")
	return t, nil
}

// transcriptDemo runs the Local Broadcast pipeline on `inputs` random hard
// instances with transcript recording and counts distinct right-part
// transcripts.
func transcriptDemo(cfg Config, g *graph.Graph, delta, b, inputs int) (int, error) {
	inner := wire.BitsFor(g.N())
	p := core.DefaultParams(g.N(), delta, core.AdapterMsgBits(g.N(), inner), 0)
	codes, err := core.BuildCodes(p) // one parameterization for every input
	if err != nil {
		return 0, err
	}
	seen := make(map[string]bool)
	for i := 0; i < inputs; i++ {
		inst := localbroadcast.NewHardInstance(g, delta, b, rng.New(cfg.Seed+500+uint64(i)))
		runner, err := newRunner(cfg, g, core.RunnerConfig{
			Params:      p,
			Codes:       codes,
			ChannelSeed: cfg.Seed + 600, // same channel seed: transcripts differ only via inputs
			AlgSeed:     cfg.Seed + 601,
			RecordBeeps: true,
		})
		if err != nil {
			return 0, err
		}
		budget := core.CongestRounds(localbroadcast.CongestRoundsNeeded(b, inner), delta)
		if _, err := runner.Run(core.WrapCongest(localbroadcast.NewAlgorithms(inst)), budget); err != nil {
			return 0, err
		}
		seen[localbroadcast.RightTranscript(runner.BeepHistory(), delta)] = true
	}
	return len(seen), nil
}

// A1RepetitionAblation sweeps the repetition factor R (the practical c_ε
// knob) at fixed noise, exposing the reliability threshold.
func A1RepetitionAblation(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: repetition factor R vs decode errors (the c_ε knob)",
		Claim:   "Lemmas 9–10 need a sufficiently large constant; below it decoding collapses, above it errors vanish",
		Columns: []string{"R", "beep rounds/sim round", "message err rate"},
	}
	n, delta, eps := 32, 6, 0.1
	rounds := 5
	rs := []int{3, 7, 15, 31, 45}
	if cfg.Quick {
		rounds = 3
		rs = []int{3, 15, 31}
	}
	g, err := regularGraph(n, delta, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		p := core.DefaultParams(n, g.MaxDegree(), 2*wire.BitsFor(n), eps)
		p.R = r
		st, err := runGossip(cfg, g, p, nil, rounds, cfg.Seed+1, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f("%d", r), f("%d", st.beepPerRound), f("%.4f", st.msgErrRate),
		})
	}
	return t, nil
}

// A2CodebookAblation sweeps the codebook size M in the paper-faithful
// random-assignment mode, measuring collision-driven failures (DESIGN.md
// substitution #2).
func A2CodebookAblation(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: random-assignment codebook size M vs collision failures",
		Claim:   "random codeword choice fails when neighborhoods collide (prob ≈ K²/2M per node); ID assignment is the collision-free limit",
		Columns: []string{"assignment", "M", "membership err rate", "message err rate"},
	}
	n, delta := 32, 6
	rounds := 5
	ms := []int{16, 64, 256, 4096}
	if cfg.Quick {
		rounds = 3
		ms = []int{16, 256}
	}
	g, err := regularGraph(n, delta, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base := core.DefaultParams(n, g.MaxDegree(), 2*wire.BitsFor(n), 0.05)
	for _, m := range ms {
		p := base
		p.Assignment = core.AssignRandom
		p.M = m
		st, err := runGossip(cfg, g, p, nil, rounds, cfg.Seed+3, cfg.Seed+4)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"random", f("%d", m), f("%.4f", st.memErrRate), f("%.4f", st.msgErrRate),
		})
	}
	st, err := runGossip(cfg, g, base, nil, rounds, cfg.Seed+3, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"by-ID", f("%d", base.M), f("%.4f", st.memErrRate), f("%.4f", st.msgErrRate)})
	return t, nil
}

// A3SoloDecodingAblation compares the §4 solo-position decoder against a
// naive all-position majority.
func A3SoloDecodingAblation(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: solo-position decoding vs all-position majority",
		Claim:   "decoding must key on positions where the sender beeps alone (§4); collisions bias naive majorities toward 1",
		Columns: []string{"ε", "decoder", "message err rate"},
	}
	n, delta := 32, 8
	rounds := 5
	epss := []float64{0.02, 0.05, 0.1}
	if cfg.Quick {
		rounds = 3
		epss = []float64{0.1}
	}
	g, err := regularGraph(n, delta, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var codes *core.Codes // every row has one TableKey: hash its codes once
	for _, eps := range epss {
		for _, naive := range []bool{false, true} {
			p := core.DefaultParams(n, g.MaxDegree(), 2*wire.BitsFor(n), eps)
			p.C = 3  // denser blocks make collisions frequent enough to matter
			p.R = 21 // fixed redundancy across ε so only the decoder varies
			p.DisableSoloFilter = naive
			if codes, err = codes.Rebind(p); err != nil {
				return nil, err
			}
			st, err := runGossip(cfg, g, p, codes, rounds, cfg.Seed+5, cfg.Seed+6)
			if err != nil {
				return nil, err
			}
			name := "solo (§4)"
			if naive {
				name = "all-position"
			}
			t.Rows = append(t.Rows, []string{f("%.2f", eps), name, f("%.4f", st.msgErrRate)})
		}
	}
	return t, nil
}
