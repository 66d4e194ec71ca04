package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/beep"
	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/rng"
)

// RunnerConfig bundles an Algorithm 1 parameterization with the execution
// seeds.
type RunnerConfig struct {
	// Params is the code/threshold parameterization; zero value selects
	// DefaultParams for the graph.
	Params Params
	// ChannelSeed drives the beeping channel noise.
	ChannelSeed uint64
	// AlgSeed drives the simulated algorithms' private randomness, with
	// the same derivation the native engines use — so a run here and a
	// native run with equal seeds execute the algorithms identically.
	AlgSeed uint64
	// RecordBeeps retains per-round beep patterns for transcript analysis
	// (the Lemma 14 / Theorem 22 counting experiments). Memory grows with
	// beep rounds; leave off for large runs.
	RecordBeeps bool
	// Codes supplies prebuilt decode tables (BuildCodes) for Params,
	// letting callers — the sweep layer's artifact cache — share one
	// table set across runners. Nil builds fresh tables; a non-nil value
	// must have been built for exactly this Params. Either way the
	// tables are a pure function of Params, so this never changes
	// results.
	Codes *Codes
	// Workers parallelizes the radio, encode, and decode phases across
	// goroutines (0 or 1 = serial, engine.AutoWorkers = GOMAXPROCS).
	// Results are bit-identical for every setting.
	Workers int
	// Metrics, when non-nil, receives runner telemetry — per-phase
	// timers, decode-stage counters (members, solo-filter hits,
	// best-effort fallback bits) — and is forwarded to the beep channel
	// for slot/flip accounting. Observation-only by the determinism
	// contract: results are byte-identical with Metrics set or nil.
	Metrics *obs.Registry
}

// runnerMetrics are the runner's resolved telemetry handles; the zero
// value is the disabled state and every update no-ops. Decode-stage
// counts accumulate per execution span and fold in with one atomic add
// per span — sums commute, so totals are deterministic under any
// Workers setting.
type runnerMetrics struct {
	simRounds    *obs.Counter // simulated Broadcast CONGEST rounds
	emptyRounds  *obs.Counter // zero-sender rounds (radio phases skipped)
	members      *obs.Counter // decoded neighborhood members delivered
	soloFiltered *obs.Counter // decodes that skipped >= 1 collided position
	fallbackBits *obs.Counter // message bits resolved via best-effort fallback
	collectT     *obs.Timer   // phase: broadcast collection
	radio1T      *obs.Timer   // phase: phase-1 propagation window
	radio2T      *obs.Timer   // phase: phase-2 data window
	decodeT      *obs.Timer   // phase: decode + deliver + score
}

// Result reports a simulated Broadcast CONGEST execution. The JSON tags
// are the serialization hook internal/sweep's persistent records build
// on (sweep.Counters embeds Result, so these tags name the stored
// fields); Outputs (arbitrary per-node values) deliberately do not
// serialize — workload-level conclusions must be distilled into
// counters first.
type Result struct {
	// SimRounds is the number of Broadcast CONGEST rounds simulated.
	SimRounds int `json:"sim_rounds"`
	// BeepRounds is the number of physical beep rounds consumed.
	BeepRounds int `json:"beep_rounds"`
	// AllDone reports whether every algorithm terminated in budget.
	AllDone bool `json:"all_done"`
	// Outputs holds each node's Output().
	Outputs []any `json:"-"`
	// Verdict is the output check of a run that checked its own typed
	// outputs and so reports no Outputs — the native beeping engine's
	// (sim.NativeBeeper). Nil means valid; runs that report Outputs
	// leave it nil.
	Verdict error `json:"-"`
	// Beeps is the total energy (number of beeps).
	Beeps int64 `json:"beeps"`
	// MessageErrors counts (node, round) pairs where the delivered message
	// multiset differed from the ground truth (what a native Broadcast
	// CONGEST engine would have delivered). The paper's Theorem 11 bounds
	// the probability of any such event by n^{-2} for its constants.
	MessageErrors int `json:"message_errors"`
	// MembershipErrors counts (node, round) pairs where the decoded
	// codeword set R̃_v differed from the true neighborhood set R_v
	// (Lemma 9's event).
	MembershipErrors int `json:"membership_errors"`
}

// BroadcastRunner simulates Broadcast CONGEST algorithms over a noisy
// beeping network using Algorithm 1.
//
// The runner owns all per-round buffers — beep patterns, phase
// receptions, and per-shard decode/score scratch — so a steady-state
// simulated round performs no heap allocations outside the algorithms'
// own callbacks (TestRunSteadyStateAllocs). Inboxes passed to
// Receive are borrowed per the congest.BroadcastAlgorithm contract.
type BroadcastRunner struct {
	g   *graph.Graph
	cfg RunnerConfig
	dec *decoder
	nw  *beep.Network

	cwStreams []*rng.Stream

	// Reused per-round buffers. patterns/xs/ys/listening are sized at
	// construction; phase2Buf entries are created lazily (first round a
	// node transmits); scratch is per execution-pool shard.
	noCollisions *bitstring.BitString // all-zero collision bitmap (DisableSoloFilter)
	patterns     []*bitstring.BitString
	xs, ys       []*bitstring.BitString
	listening    *bitstring.BitString // nodes not done after collection: the windows' listeners
	phase2Buf    []*bitstring.BitString
	scratch      []*shardScratch
	m            runnerMetrics
}

// shardScratch is one execution-pool shard's decode/deliver/score state.
// Inbox message buffers are reused round to round — deliveries are
// borrowed, never retained (see congest.BroadcastAlgorithm).
type shardScratch struct {
	dec       *decodeScratch
	inbox     []congest.Message
	msgPool   congest.MessagePool
	trueSet   []int
	got       []int
	truth     []congest.Message
	truthPool congest.MessagePool
}

// NewBroadcastRunner builds a runner for g. If cfg.Params is the zero
// value, DefaultParams with the graph's Δ, 4·⌈log₂ n⌉ message bits, and
// ε = 0.05 is used.
func NewBroadcastRunner(g *graph.Graph, cfg RunnerConfig) (*BroadcastRunner, error) {
	if cfg.Params == (Params{}) {
		logn := 1
		for v := g.N() - 1; v > 1; v >>= 1 {
			logn++
		}
		cfg.Params = DefaultParams(g.N(), g.MaxDegree(), 4*logn, 0.05)
	}
	if err := cfg.Params.Validate(g.N(), g.MaxDegree()); err != nil {
		return nil, err
	}
	var dec *decoder
	if cfg.Codes != nil {
		if cfg.Codes.p != cfg.Params {
			return nil, fmt.Errorf("core: prebuilt codes for %+v used with params %+v", cfg.Codes.p, cfg.Params)
		}
		dec = cfg.Codes.dec
	} else {
		var err error
		dec, err = newDecoder(cfg.Params)
		if err != nil {
			return nil, err
		}
	}
	// Resolve the channel: a non-empty Noise spec replaces the symmetric
	// ε channel (Params.Epsilon then only calibrates the decoder).
	beepParams := beep.Params{
		Epsilon:     cfg.Params.Epsilon,
		Seed:        cfg.ChannelSeed,
		RecordBeeps: cfg.RecordBeeps,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
	}
	if cfg.Params.Noise != "" {
		model, err := noise.Parse(cfg.Params.Noise)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		beepParams.Epsilon, beepParams.Noise = 0, model
	}
	nw, err := beep.NewNetwork(g, beepParams)
	if err != nil {
		return nil, err
	}
	n := g.N()
	b := cfg.Params.PhaseLength()
	r := &BroadcastRunner{
		g:            g,
		cfg:          cfg,
		dec:          dec,
		nw:           nw,
		noCollisions: bitstring.New(b),
		patterns:     make([]*bitstring.BitString, n),
		xs:           make([]*bitstring.BitString, n),
		ys:           make([]*bitstring.BitString, n),
		listening:    bitstring.New(n),
		phase2Buf:    make([]*bitstring.BitString, n),
	}
	for v := 0; v < n; v++ {
		r.xs[v] = bitstring.New(b)
		r.ys[v] = bitstring.New(b)
	}
	numShards := nw.Pool().NumShards(n)
	r.scratch = make([]*shardScratch, numShards)
	for i := range r.scratch {
		r.scratch[i] = &shardScratch{dec: dec.newScratch()}
	}
	if cfg.Params.Assignment == AssignRandom {
		r.cwStreams = make([]*rng.Stream, n)
		for v := range r.cwStreams {
			r.cwStreams[v] = rng.New(cfg.ChannelSeed).Split(0x637721, uint64(v)) // "cw"
		}
	}
	if reg := cfg.Metrics; reg != nil {
		r.m = runnerMetrics{
			simRounds:    reg.Counter("core.rounds.sim"),
			emptyRounds:  reg.Counter("core.rounds.empty"),
			members:      reg.Counter("core.decode.members"),
			soloFiltered: reg.Counter("core.decode.solo_filtered"),
			fallbackBits: reg.Counter("core.decode.fallback_bits"),
			collectT:     reg.Timer("core.phase.collect_nanos"),
			radio1T:      reg.Timer("core.phase.radio1_nanos"),
			radio2T:      reg.Timer("core.phase.radio2_nanos"),
			decodeT:      reg.Timer("core.phase.decode_nanos"),
		}
	}
	return r, nil
}

// BeepHistory returns the recorded per-round beep patterns (nil unless
// RunnerConfig.RecordBeeps was set).
func (r *BroadcastRunner) BeepHistory() []*bitstring.BitString { return r.nw.BeepHistory() }

// Env builds the environment node v's algorithm sees; identical to the
// native Broadcast CONGEST engine's.
func (r *BroadcastRunner) Env(v int) congest.Env {
	return congest.Env{
		ID:        v,
		N:         r.g.N(),
		Degree:    r.g.Degree(v),
		MaxDegree: r.g.MaxDegree(),
		MsgBits:   r.cfg.Params.MsgBits,
		Rng:       congest.NodeStream(r.cfg.AlgSeed, v),
	}
}

// Run simulates the algorithms for at most maxSimRounds Broadcast CONGEST
// rounds, each costing Params().RoundsPerSimRound() beep rounds.
//
// The broadcast-collection, codeword-encoding, and decode/deliver phases
// run span-parallel on the beep network's worker pool (RunnerConfig's
// Workers): every phase writes only per-node slots, the decoder
// tables are read-only, and each shard decodes on its own scratch, so
// results are bit-identical to a serial run.
func (r *BroadcastRunner) Run(algs []congest.BroadcastAlgorithm, maxSimRounds int) (*Result, error) {
	n := r.g.N()
	if len(algs) != n {
		return nil, fmt.Errorf("core: %d algorithms for %d nodes", len(algs), n)
	}
	p := r.cfg.Params
	pool := r.nw.Pool()
	for v, a := range algs {
		a.Init(r.Env(v))
	}
	res := &Result{}
	msgs := make([]congest.Message, n)
	cw := make([]int, n)
	scores := make([]ScoreDelta, pool.NumShards(n))
	collector := congest.NewCollector(pool, algs, msgs, p.MsgBits, "core")
	done := func(v int) bool { return algs[v].Done() }

	// The per-phase span callbacks are built once, before the round loop,
	// so rounds create no closures; curRound carries the loop variable
	// into the decode phase.
	curRound := 0

	// Codeword assignment (Algorithm 1 line 1). Each node draws from its
	// private stream, so the phase is span-safe. The phase also marks the
	// round's listeners: the nodes not done after collection, exactly the
	// set the decode phase reads. A node that finished inside Broadcast
	// still beeps its patterns but hears neither window. Spans are
	// word-aligned, so each writes only its own listening words.
	assignPhase := func(s engine.Span) {
		for v := s.Lo; v < s.Hi; v++ {
			r.listening.SetBool(v, !algs[v].Done())
			cw[v] = -1
			if msgs[v] == nil {
				continue
			}
			switch p.Assignment {
			case AssignByID:
				cw[v] = v
			case AssignRandom:
				cw[v] = r.cwStreams[v].Intn(p.M)
			}
		}
	}

	// Phase 1: beep C(r_v). The patterns are the decoder's cached
	// codeword masks — shared read-only, nothing materialized.
	phase1 := func(s engine.Span) {
		for v := s.Lo; v < s.Hi; v++ {
			r.patterns[v] = nil
			if cw[v] >= 0 {
				r.patterns[v] = r.dec.encodePhase1(cw[v])
			}
		}
	}

	// Phase 2: beep CD(r_v, m_v), encoded into the node's reusable
	// pattern buffer (created the first round it transmits).
	phase2 := func(s engine.Span) {
		for v := s.Lo; v < s.Hi; v++ {
			r.patterns[v] = nil
			if cw[v] >= 0 {
				if r.phase2Buf[v] == nil {
					r.phase2Buf[v] = bitstring.New(p.PhaseLength())
				}
				r.dec.encodePhase2Into(cw[v], msgs[v], r.phase2Buf[v])
				r.patterns[v] = r.phase2Buf[v]
			}
		}
	}

	// Decode and deliver, on per-shard scratch. Scoring accumulates per
	// span and is summed in span order so counters match the serial run
	// exactly.
	// The decode-stage counts (members, solo-filter hits, fallback-decoded
	// bits) come back from each decode, accumulate per span and fold in
	// with one atomic add each.
	decodePhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		scores[s.Index] = ScoreDelta{}
		var members, soloFiltered, fallbackBits int64
		for v := s.Lo; v < s.Hi; v++ {
			a := algs[v]
			if a.Done() {
				continue
			}
			decoded := r.dec.members(r.xs[v], sc.dec.members)
			sc.dec.members = decoded
			collided := r.noCollisions
			if !p.DisableSoloFilter {
				collided = r.dec.collisions(decoded, sc.dec)
			}
			inbox := sc.inbox[:0]
			for _, t := range decoded {
				if cw[v] >= 0 && t == cw[v] {
					continue // own transmission
				}
				// ỹ is y at t's positions (Lemma 10), read in place.
				buf := sc.msgPool.Buf(len(inbox), r.dec.msgBytes)
				msg, skipped, fallbacks := r.dec.dist.DecodeCollidedInto(r.ys[v], collided, r.dec.code.PositionRow(t), buf)
				inbox = append(inbox, msg)
				members++
				if skipped > 0 {
					soloFiltered++
				}
				fallbackBits += int64(fallbacks)
			}
			congest.SortMessages(inbox)

			r.score(sc, &scores[s.Index], v, cw, msgs, decoded, inbox)
			a.Receive(curRound, inbox)
			sc.inbox = inbox[:0]
		}
		r.m.members.Add(members)
		r.m.soloFiltered.Add(soloFiltered)
		r.m.fallbackBits.Add(fallbackBits)
	}

	simRounds, allDone, err := pool.Loop(n, maxSimRounds, done, func(round int) error {
		curRound = round
		r.m.simRounds.Inc()
		// Collect the round's broadcasts; nil means the node stays silent
		// and only listens.
		sp := r.m.collectT.Start()
		senders, err := collector.Collect(round)
		sp.Stop()
		if err != nil {
			return err
		}
		if senders == 0 {
			// Nothing on the air: every active node hears (noisy) silence
			// and decodes an empty neighborhood. We skip the radio phases
			// but still deliver the empty multiset.
			r.m.emptyRounds.Inc()
			for _, a := range algs {
				if !a.Done() {
					a.Receive(round, nil)
				}
			}
			return nil
		}

		pool.Do(n, assignPhase)
		pool.Do(n, phase1)
		sp = r.m.radio1T.Start()
		if err := r.nw.RunPhaseInto(r.patterns, r.xs, r.listening); err != nil {
			return err
		}
		sp.Stop()
		pool.Do(n, phase2)
		sp = r.m.radio2T.Start()
		if err := r.nw.RunPhaseInto(r.patterns, r.ys, r.listening); err != nil {
			return err
		}
		sp.Stop()
		res.BeepRounds += p.RoundsPerSimRound()

		sp = r.m.decodeT.Start()
		pool.Do(n, decodePhase)
		sp.Stop()
		res.AddScores(scores)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.SimRounds = simRounds
	res.AllDone = allDone
	res.Outputs = make([]any, n)
	for v, a := range algs {
		res.Outputs[v] = a.Output()
	}
	res.Beeps = r.nw.TotalBeeps()
	return res, nil
}

// ScoreDelta is one execution span's error-counter contribution for a
// round; both the Algorithm 1 runner and the TDMA baseline accumulate
// per-span deltas and fold them into a Result in span order.
type ScoreDelta struct {
	Membership int
	Message    int
}

// AddScores folds per-span score deltas into the result, in span order.
func (r *Result) AddScores(deltas []ScoreDelta) {
	for i := range deltas {
		r.MembershipErrors += deltas[i].Membership
		r.MessageErrors += deltas[i].Message
	}
}

// score compares node v's decoding against ground truth, updating error
// counters. Ground truth is runner-level bookkeeping only — nothing here
// feeds back into the simulation. It builds the truth multiset on the
// shard's reusable buffers.
func (r *BroadcastRunner) score(sc *shardScratch, d *ScoreDelta, v int, cw []int, msgs []congest.Message, decoded []int, inbox []congest.Message) {
	trueSet := sc.trueSet[:0]
	truth := sc.truth[:0]
	for _, u := range r.g.Row(v) {
		if cw[u] >= 0 {
			trueSet = append(trueSet, cw[u])
			truth = append(truth, sc.truthPool.PadInto(len(truth), r.dec.msgBytes, msgs[u]))
		}
	}
	if cw[v] >= 0 {
		trueSet = append(trueSet, cw[v]) // own codeword is part of x_v
	}
	slices.Sort(trueSet)
	got := append(sc.got[:0], decoded...)
	slices.Sort(got)
	if !equalInts(trueSet, got) {
		d.Membership++
	}
	congest.SortMessages(truth)
	if !equalMessages(truth, inbox) {
		d.Message++
	}
	sc.trueSet, sc.got, sc.truth = trueSet, got, truth
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalMessages(a, b []congest.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
