package experiments

import (
	"math"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/wire"
)

// T3Phase1Membership measures Lemmas 8+9: the probability that a node's
// decoded codeword set R̃_v differs from the true R_v, across noise
// rates. A thin view over sweep records (one scenario per ε).
func T3Phase1Membership(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T3",
		Title:   "Phase-1 neighborhood decoding under noise (Lemmas 8–9)",
		Claim:   "R̃_v = R_v for all v w.h.p., for any ε ∈ [0, ½) with ε-calibrated thresholds",
		Columns: []string{"n", "Δ", "ε", "node·rounds", "membership err rate", "message err rate"},
	}
	n, rounds := 64, 6
	if cfg.Quick {
		n, rounds = 24, 3
	}
	var scs []sweep.Scenario
	for i, eps := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		scs = append(scs, sweep.Scenario{
			Family: sweep.FamilyRegular, N: n, Param: 6, Epsilon: eps,
			Engine: sweep.EngineAlg1, Workload: sweep.WorkloadGossip,
			Rounds: rounds, MsgBits: 2 * wire.BitsFor(n),
			GraphSeed:   cfg.Seed + uint64(i),
			ChannelSeed: cfg.Seed + 50 + uint64(i),
			AlgSeed:     cfg.Seed + 90,
		})
	}
	recs, err := runSweep(cfg, scs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", rec.Graph.MaxDegree), f("%.2f", rec.Spec.Epsilon),
			f("%d", rec.NodeRounds()), f("%.4f", rec.MemErrRate()), f("%.4f", rec.MsgErrRate()),
		})
	}
	t.Notes = append(t.Notes, "noise does not asymptotically change the simulation (the paper's headline): error rates stay ≈0 across ε at Θ(Δ log n) phase lengths")
	return t, nil
}

// T4BroadcastOverhead measures Theorem 11's O(Δ log n) overhead shape:
// beep rounds per simulated Broadcast CONGEST round across Δ and n
// sweeps. A thin view over sweep records: the two axis sweeps are one
// scenario batch, and every number in the table is read off a Record.
func T4BroadcastOverhead(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T4",
		Title:   "Broadcast CONGEST simulation overhead (Theorem 11)",
		Claim:   "one Broadcast CONGEST round costs O(Δ log n) noisy-beep rounds, errors w.h.p. zero",
		Columns: []string{"n", "Δ", "ε", "beep rounds/sim round", "per (Δ+1)·log₂n", "msg err rate"},
	}
	const eps = 0.1
	deltas := []int{2, 4, 8, 16}
	ns := []int{32, 64, 128, 256}
	rounds := 4
	if cfg.Quick {
		deltas = []int{2, 4}
		ns = []int{32, 64}
		rounds = 2
	}
	nFixed := 64
	if cfg.Quick {
		nFixed = 32
	}

	var scs []sweep.Scenario
	for i, delta := range deltas { // Δ sweep at fixed n
		scs = append(scs, sweep.Scenario{
			Family: sweep.FamilyRegular, N: nFixed, Param: delta, Epsilon: eps,
			Engine: sweep.EngineAlg1, Workload: sweep.WorkloadGossip,
			Rounds: rounds, MsgBits: 2 * wire.BitsFor(nFixed),
			GraphSeed:   cfg.Seed + uint64(i),
			ChannelSeed: cfg.Seed + 20 + uint64(i),
			AlgSeed:     cfg.Seed + 99,
		})
	}
	for i, n := range ns { // n sweep at fixed Δ
		scs = append(scs, sweep.Scenario{
			Family: sweep.FamilyRegular, N: n, Param: 8, Epsilon: eps,
			Engine: sweep.EngineAlg1, Workload: sweep.WorkloadGossip,
			Rounds: rounds, MsgBits: 2 * wire.BitsFor(n),
			GraphSeed:   cfg.Seed + 40 + uint64(i),
			ChannelSeed: cfg.Seed + 60 + uint64(i),
			AlgSeed:     cfg.Seed + 98,
		})
	}
	recs, err := runSweep(cfg, scs)
	if err != nil {
		return nil, err
	}

	var dxs, dys []float64
	for i, rec := range recs {
		n := rec.Spec.N
		perRound := rec.BeepsPerSimRound()
		// The Δ-sweep rows label themselves with the requested Δ, the
		// n-sweep rows with the realized one — exactly as before the
		// sweep refactor.
		delta := rec.Graph.MaxDegree
		if i < len(deltas) {
			delta = rec.Spec.Param
		}
		logn := math.Log2(float64(n))
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", delta), f("%.2f", eps),
			f("%d", perRound),
			f("%.1f", float64(perRound)/(float64(rec.Graph.MaxDegree+1)*logn)),
			f("%.4f", rec.MsgErrRate()),
		})
		if i < len(deltas) {
			dxs = append(dxs, float64(rec.Spec.Param+1))
			dys = append(dys, float64(perRound))
		}
	}
	if slope, err := stats.LogLogSlope(dxs, dys); err == nil {
		t.Notes = append(t.Notes, f("log-log slope of overhead vs (Δ+1) at fixed n: %.2f (theory: 1.0)", slope))
	}
	t.Notes = append(t.Notes, "the per-(Δ+1)log n column is ≈constant across both sweeps — the Theorem 11 shape")
	return t, nil
}

// congestProbe is a trivial CONGEST workload: each node sends each
// neighbor one message per round for `rounds` rounds.
type congestProbe struct {
	env       congest.Env
	neighbors []int
	rounds    int
	seen      int
}

func (c *congestProbe) Init(env congest.Env, neighbors []int) {
	c.env = env
	c.neighbors = neighbors
	if c.rounds == 0 {
		c.rounds = 1
	}
}

func (c *congestProbe) Send(round int) []congest.Directed {
	out := make([]congest.Directed, 0, len(c.neighbors))
	for _, u := range c.neighbors {
		var w wire.Writer
		w.WriteUint(uint64(c.env.ID%2), 1)
		out = append(out, congest.Directed{To: u, Msg: w.PaddedBytes(c.env.MsgBits)})
	}
	return out
}

func (c *congestProbe) Receive(round int, in []congest.Incoming) {
	c.seen++
}

func (c *congestProbe) Done() bool  { return c.seen >= c.rounds }
func (c *congestProbe) Output() any { return c.seen }

// T5CongestOverhead measures Corollary 12: a CONGEST round costs
// O(Δ² log n) noisy-beep rounds via the adapter.
func T5CongestOverhead(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T5",
		Title:   "CONGEST simulation overhead (Corollary 12)",
		Claim:   "one CONGEST round costs O(Δ² log n) noisy-beep rounds",
		Columns: []string{"n", "Δ", "beep rounds/CONGEST round", "per Δ²·log₂n", "msg err rate"},
	}
	const eps = 0.05
	n := 48
	deltas := []int{2, 4, 8, 16}
	congestRounds := 3
	if cfg.Quick {
		n = 24
		deltas = []int{2, 4}
		congestRounds = 2
	}
	var xs, ys []float64
	for i, delta := range deltas {
		g, err := regularGraph(n, delta, cfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		inner := wire.BitsFor(n)
		outer := core.AdapterMsgBits(n, inner)
		runner, err := newRunner(cfg, g, core.RunnerConfig{
			Params:      core.DefaultParams(n, g.MaxDegree(), outer, eps),
			ChannelSeed: cfg.Seed + 7 + uint64(i),
			AlgSeed:     cfg.Seed + 8,
		})
		if err != nil {
			return nil, err
		}
		algs := make([]congest.Algorithm, n)
		for v := range algs {
			algs[v] = &congestProbe{rounds: congestRounds}
		}
		res, err := runner.Run(core.WrapCongest(algs), core.CongestRounds(congestRounds, g.MaxDegree()))
		if err != nil {
			return nil, err
		}
		perCongest := float64(res.BeepRounds) / float64(congestRounds)
		errRate := float64(res.MessageErrors) / float64(n*res.SimRounds)
		logn := math.Log2(float64(n))
		dd := float64(g.MaxDegree())
		t.Rows = append(t.Rows, []string{
			f("%d", n), f("%d", g.MaxDegree()),
			f("%.0f", perCongest),
			f("%.1f", perCongest/(dd*dd*logn)),
			f("%.4f", errRate),
		})
		xs = append(xs, dd)
		ys = append(ys, perCongest)
	}
	if slope, err := stats.LogLogSlope(xs, ys); err == nil {
		t.Notes = append(t.Notes, f("log-log slope of per-round cost vs Δ: %.2f (theory: 2.0; the cost is Δ·(Δ+1)·const·log n, whose finite-Δ slope sits below 2 — the per-Δ²·log n column is the decreasing-toward-constant view)", slope))
	}
	return t, nil
}

// T6BaselineComparison compares Algorithm 1 against the [7]/[4]-style
// distance-2-coloring TDMA baseline on the topology that realizes the
// min{n, Δ²} color count: projective-plane incidence graphs, whose square
// is the complete graph (χ(G²) = n = Θ(Δ²)). A random bounded-degree row
// is included to show the tame case where greedy coloring flatters the
// baseline.
func T6BaselineComparison(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "T6",
		Title:   "Overhead vs prior-work TDMA baseline ([7], [4]) on χ(G²)=Θ(Δ²) instances",
		Claim:   "the superimposed-code simulation beats G²-coloring TDMA by Θ(min{n/Δ, Δ}) with no setup (§1.3)",
		Columns: []string{"graph", "n", "Δ", "colors", "ours (beeps/round)", "TDMA (beeps/round)", "ratio", "TDMA setup (est.)"},
	}
	const eps = 0.05
	rounds := 3
	qs := []int{3, 5, 7, 11, 13, 17, 19}
	if cfg.Quick {
		qs = []int{3, 5}
		rounds = 2
	}
	// One Algorithm-1 + one TDMA scenario per instance: the PG(2,q)
	// worst cases, then the tame random row. The instances share graph
	// seeds across engines; the per-instance message width (2·⌈log₂n⌉,
	// n derived for PG) is the sweep gossip default, left implicit.
	type instance struct {
		name string
		spec sweep.Scenario // engine-independent part
	}
	var instances []instance
	for _, q := range qs {
		instances = append(instances, instance{
			name: f("PG(2,%d)", q),
			spec: sweep.Scenario{Family: sweep.FamilyPG, Param: q},
		})
	}
	instances = append(instances, instance{
		name: "random-8-regular",
		spec: sweep.Scenario{Family: sweep.FamilyRegular, N: 64, Param: 8, GraphSeed: cfg.Seed},
	})
	var scs []sweep.Scenario
	for i, inst := range instances {
		for _, eng := range []string{sweep.EngineAlg1, sweep.EngineTDMA} {
			sc := inst.spec
			sc.Epsilon = eps
			sc.Engine = eng
			sc.Workload = sweep.WorkloadGossip
			sc.Rounds = rounds
			sc.ChannelSeed = cfg.Seed + 30 + uint64(i)
			if eng == sweep.EngineTDMA {
				sc.ChannelSeed = cfg.Seed + 31 + uint64(i)
			}
			sc.AlgSeed = cfg.Seed + 97
			scs = append(scs, sc)
		}
	}
	recs, err := runSweep(cfg, scs)
	if err != nil {
		return nil, err
	}
	for i, inst := range instances {
		ours, tdma := recs[2*i], recs[2*i+1]
		t.Rows = append(t.Rows, []string{
			inst.name, f("%d", ours.Graph.N), f("%d", ours.Graph.MaxDegree),
			f("%d", tdma.Colors),
			f("%d", ours.BeepsPerSimRound()),
			f("%d", tdma.BeepsPerSimRound()),
			f("%.1fx", float64(tdma.BeepsPerSimRound())/float64(ours.BeepsPerSimRound())),
			f("%d", tdma.SetupRounds),
		})
	}
	t.Notes = append(t.Notes,
		"on PG(2,q) incidence graphs the ratio grows ≈ linearly in Δ (the baseline pays χ(G²)=n=Θ(Δ²) color classes vs our Δ+1 factor), with the crossover at small Δ where constants dominate",
		"on random graphs greedy G²-coloring needs far fewer than Δ² colors, shrinking the gap — the paper's bound is worst-case",
		"setup column is the O(Δ⁴ log n) one-off cost [4] pays (our centralized coloring stands in for it); Algorithm 1 needs no setup at all")
	return t, nil
}
