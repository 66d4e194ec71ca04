// Package baseline implements the prior-work simulation of message
// passing with beeps that the paper improves on (§1.2, §1.4): the
// TDMA-style schedule of Beauquier et al. [7] and Ashkenazi–Gelles–Leshem
// [4], which colors G² and lets each color class transmit alone.
//
// Because any two neighbors of a listener are within distance 2 of each
// other, a proper distance-2 coloring guarantees at most one transmitter
// per listener neighborhood per slot, so messages arrive collision-free;
// noise is defeated by per-bit repetition with majority decoding. The cost
// is the Θ(min{n, Δ²}) color classes — exactly the overhead factor the
// paper's superimposed-code approach removes.
//
// The distance-2 coloring itself is computed centrally here, standing in
// for the baselines' expensive distributed setup phase (Δ⁶ rounds in [7],
// O(Δ⁴ log n) in [4]); EstimatedSetupRounds reports that cost for the
// comparison tables. This substitution favors the baseline, making the
// paper's measured advantage conservative.
package baseline

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes the TDMA baseline.
type Config struct {
	// MsgBits is the simulated Broadcast CONGEST bandwidth.
	MsgBits int
	// Epsilon is the channel noise rate of the default symmetric
	// channel; leave it 0 when Noise is set.
	Epsilon float64
	// Noise is the canonical channel-model spec (internal/noise.Parse);
	// empty selects the symmetric{Epsilon} channel. A non-empty spec
	// owns the channel, and ρ calibrates against the model's worst
	// marginal flip rate.
	Noise string
	// ChannelSeed and AlgSeed mirror core.RunnerConfig.
	ChannelSeed uint64
	AlgSeed     uint64
	// Workers mirrors core.RunnerConfig: the per-node encode, radio, and
	// decode phases run on a deterministic sharded pool, so results are
	// bit-identical for every setting (0 or 1 = serial,
	// engine.AutoWorkers = GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives baseline telemetry — encode/decode
	// phase timers, slot counters, and (via the beep channel) per-model
	// noise-flip accounting; the sliced runner adds lane occupancy and
	// retirement. Observation-only per the determinism contract.
	Metrics *obs.Registry
}

// tdmaMetrics are the flat runner's resolved telemetry handles; the
// zero value is the disabled state.
type tdmaMetrics struct {
	simRounds   *obs.Counter // simulated Broadcast CONGEST rounds
	emptyRounds *obs.Counter // zero-sender rounds (radio window skipped)
	encodeT     *obs.Timer   // phase: slot-pattern encoding
	radioT      *obs.Timer   // phase: the TDMA window
	decodeT     *obs.Timer   // phase: majority decode + deliver + score
}

// DefaultRho returns the per-bit repetition count ρ (odd and positive)
// calibrated to eps, mirroring the core package's repetition table so
// comparisons are apples-to-apples. Both runners repeat each bit
// DefaultRho(calibration rate) times.
func DefaultRho(eps float64) int {
	switch {
	case eps == 0:
		return 1
	case eps < 0.07:
		return 15
	case eps < 0.12:
		return 21
	case eps < 0.2:
		return 31
	case eps < 0.26:
		return 61
	default:
		return 101
	}
}

// Runner simulates Broadcast CONGEST rounds with the color-scheduled
// baseline. Like the Algorithm 1 runner it owns its per-round buffers —
// slot patterns, receptions, and per-shard decode/score scratch — so
// steady-state rounds allocate only inside algorithm callbacks; inboxes
// are borrowed per the congest.BroadcastAlgorithm contract.
type Runner struct {
	g         *graph.Graph
	cfg       Config
	rho       int // per-bit repetition count, DefaultRho of the calibration rate
	colors    []int
	numColors int
	nw        *beep.Network

	patterns []*bitstring.BitString
	patBuf   []*bitstring.BitString // per-node slot patterns, created lazily
	heard    []*bitstring.BitString
	scratch  []*shardScratch
	m        tdmaMetrics
}

// shardScratch is one execution-pool shard's reusable decode/score state.
type shardScratch struct {
	inbox     []congest.Message
	msgPool   congest.MessagePool
	truth     []congest.Message
	truthPool congest.MessagePool
}

// resolveChannel validates cfg's bandwidth and channel and returns the
// channel model and ρ. A non-empty Noise spec owns the channel (ε must
// be 0); otherwise the channel is symmetric{Epsilon}. Hostile models
// calibrate ρ against their worst-case per-window rate, stochastic ones
// against their worst marginal flip rate. Both runners resolve their
// channel here.
func resolveChannel(cfg Config) (noise.Model, int, error) {
	if cfg.MsgBits <= 0 {
		return nil, 0, fmt.Errorf("baseline: MsgBits = %d", cfg.MsgBits)
	}
	var model noise.Model = noise.Symmetric{Eps: cfg.Epsilon}
	if cfg.Noise != "" {
		if cfg.Epsilon != 0 {
			return nil, 0, fmt.Errorf("baseline: both ε = %v and channel %s given; the model owns the channel, leave ε 0", cfg.Epsilon, cfg.Noise)
		}
		var err error
		if model, err = noise.Parse(cfg.Noise); err != nil {
			return nil, 0, fmt.Errorf("baseline: %w", err)
		}
	} else if err := model.Validate(); err != nil {
		return nil, 0, fmt.Errorf("baseline: %w", err)
	}
	calibEps := noise.CalibrationRate(model)
	if calibEps >= 0.5 {
		return nil, 0, fmt.Errorf("baseline: channel %s: calibration rate %v outside [0, 0.5)", model.Spec(), calibEps)
	}
	return model, DefaultRho(calibEps), nil
}

// NewRunner builds a baseline runner over g.
func NewRunner(g *graph.Graph, cfg Config) (*Runner, error) {
	model, rho, err := resolveChannel(cfg)
	if err != nil {
		return nil, err
	}
	beepParams := beep.Params{
		Epsilon: cfg.Epsilon,
		Seed:    cfg.ChannelSeed,
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
	}
	if cfg.Noise != "" {
		beepParams.Noise = model
	}
	nw, err := beep.NewNetwork(g, beepParams)
	if err != nil {
		return nil, err
	}
	colors, err := g.DistanceTwoColoring()
	if err != nil {
		return nil, fmt.Errorf("baseline: distance-2 coloring: %w", err)
	}
	r := &Runner{
		g:         g,
		cfg:       cfg,
		rho:       rho,
		colors:    colors,
		numColors: graph.NumColors(colors),
		nw:        nw,
	}
	n := g.N()
	r.patterns = make([]*bitstring.BitString, n)
	r.patBuf = make([]*bitstring.BitString, n)
	r.heard = make([]*bitstring.BitString, n)
	for v := 0; v < n; v++ {
		r.heard[v] = bitstring.New(r.RoundsPerSimRound())
	}
	r.scratch = make([]*shardScratch, nw.Pool().NumShards(n))
	for i := range r.scratch {
		r.scratch[i] = &shardScratch{}
	}
	if reg := cfg.Metrics; reg != nil {
		r.m = tdmaMetrics{
			simRounds:   reg.Counter("tdma.rounds.sim"),
			emptyRounds: reg.Counter("tdma.rounds.empty"),
			encodeT:     reg.Timer("tdma.phase.encode_nanos"),
			radioT:      reg.Timer("tdma.phase.radio_nanos"),
			decodeT:     reg.Timer("tdma.phase.decode_nanos"),
		}
	}
	return r, nil
}

// NumColors returns the schedule length (color classes of G²).
func (r *Runner) NumColors() int { return r.numColors }

// Rho returns the per-bit repetition count, so result records can
// report the baseline's full parameterization.
func (r *Runner) Rho() int { return r.rho }

// RoundsPerSimRound returns the beep rounds per simulated round:
// one slot of (1+MsgBits)·ρ rounds per color class (the leading bit is the
// presence beacon distinguishing transmission from silence).
func (r *Runner) RoundsPerSimRound() int {
	return r.numColors * (1 + r.cfg.MsgBits) * r.rho
}

// slotLen returns the beep rounds per color slot.
func (r *Runner) slotLen() int { return (1 + r.cfg.MsgBits) * r.rho }

// Env mirrors the native engine's environment.
func (r *Runner) Env(v int) congest.Env {
	return congest.Env{
		ID:        v,
		N:         r.g.N(),
		Degree:    r.g.Degree(v),
		MaxDegree: r.g.MaxDegree(),
		MsgBits:   r.cfg.MsgBits,
		Rng:       congest.NodeStream(r.cfg.AlgSeed, v),
	}
}

// Run simulates the algorithms for at most maxSimRounds Broadcast CONGEST
// rounds. The result type is shared with core for comparability;
// MembershipErrors counts presence-detection mistakes (phantom or missed
// transmissions). Per-node phases run on the beep network's deterministic
// sharded pool (Config.Workers); results are bit-identical to a
// serial run.
func (r *Runner) Run(algs []congest.BroadcastAlgorithm, maxSimRounds int) (*core.Result, error) {
	n := r.g.N()
	if len(algs) != n {
		return nil, fmt.Errorf("baseline: %d algorithms for %d nodes", len(algs), n)
	}
	pool := r.nw.Pool()
	for v, a := range algs {
		a.Init(r.Env(v))
	}
	res := &core.Result{}
	msgs := make([]congest.Message, n)
	scores := make([]core.ScoreDelta, pool.NumShards(n))
	collector := congest.NewCollector(pool, algs, msgs, r.cfg.MsgBits, "baseline")
	doneAt := func(v int) bool { return algs[v].Done() }

	// Span callbacks are built once, before the round loop (see the
	// Algorithm 1 runner): steady-state rounds create no closures.
	curRound := 0
	total := r.RoundsPerSimRound()
	encodePhase := func(s engine.Span) {
		for v := s.Lo; v < s.Hi; v++ {
			r.patterns[v] = nil
			if msgs[v] == nil {
				continue
			}
			if r.patBuf[v] == nil {
				r.patBuf[v] = bitstring.New(total)
			}
			p := r.patBuf[v]
			p.Reset()
			base := r.colors[v] * r.slotLen()
			p.SetRange(base, base+r.rho) // presence beacon
			for bit := 0; bit < r.cfg.MsgBits; bit++ {
				if !wire.Bit(msgs[v], bit) {
					continue
				}
				off := base + (1+bit)*r.rho
				p.SetRange(off, off+r.rho)
			}
			r.patterns[v] = p
		}
	}
	decodePhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		scores[s.Index] = core.ScoreDelta{}
		for v := s.Lo; v < s.Hi; v++ {
			a := algs[v]
			if a.Done() {
				continue
			}
			inbox := r.decode(v, r.heard[v], sc)
			congest.SortMessages(inbox)
			r.score(sc, &scores[s.Index], v, msgs, inbox)
			a.Receive(curRound, inbox)
			sc.inbox = inbox[:0]
		}
	}

	simRounds, allDone, err := pool.Loop(n, maxSimRounds, doneAt, func(round int) error {
		curRound = round
		r.m.simRounds.Inc()
		senders, err := collector.Collect(round)
		if err != nil {
			return err
		}
		if senders == 0 {
			r.m.emptyRounds.Inc()
			for _, a := range algs {
				if !a.Done() {
					a.Receive(round, nil)
				}
			}
			return nil
		}

		sp := r.m.encodeT.Start()
		pool.Do(n, encodePhase)
		sp.Stop()
		sp = r.m.radioT.Start()
		if err := r.nw.RunPhaseInto(r.patterns, r.heard); err != nil {
			return err
		}
		sp.Stop()
		res.BeepRounds += total

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

// decode reads every foreign color slot: majority presence beacon, then
// per-bit majority for the payload. Messages land in the shard's reusable
// buffers; the returned inbox is borrowed.
func (r *Runner) decode(v int, heard *bitstring.BitString, sc *shardScratch) []congest.Message {
	inbox := sc.inbox[:0]
	msgBytes := (r.cfg.MsgBits + 7) / 8
	for c := 0; c < r.numColors; c++ {
		if c == r.colors[v] {
			continue // our own slot (we cannot listen while beeping)
		}
		base := c * r.slotLen()
		if !r.majority(heard, base) {
			continue
		}
		m := sc.msgPool.Buf(len(inbox), msgBytes)
		for i := range m {
			m[i] = 0
		}
		for bit := 0; bit < r.cfg.MsgBits; bit++ {
			if r.majority(heard, base+(1+bit)*r.rho) {
				wire.SetBit(m, bit, true)
			}
		}
		inbox = append(inbox, m)
	}
	return inbox
}

func (r *Runner) majority(heard *bitstring.BitString, off int) bool {
	return 2*heard.OnesRange(off, off+r.rho) > r.rho
}

func (r *Runner) score(sc *shardScratch, d *core.ScoreDelta, v int, msgs []congest.Message, inbox []congest.Message) {
	truth := sc.truth[:0]
	msgBytes := (r.cfg.MsgBits + 7) / 8
	presence := 0
	for _, u := range r.g.Row(v) {
		if msgs[u] != nil {
			presence++
			truth = append(truth, sc.truthPool.PadInto(len(truth), msgBytes, msgs[u]))
		}
	}
	if presence != len(inbox) {
		d.Membership++
	}
	congest.SortMessages(truth)
	equal := len(truth) == len(inbox)
	if equal {
		for i := range truth {
			if !wire.Equal(truth[i], inbox[i], r.cfg.MsgBits) {
				equal = false
				break
			}
		}
	}
	if !equal {
		d.Message++
	}
	sc.truth = truth
}

// EstimatedSetupRounds reports the setup cost of the [4] baseline,
// O(Δ⁴ log n) beep rounds (we charge constant 1), which our centralized
// coloring stands in for.
func EstimatedSetupRounds(n, maxDeg int) int {
	logn := wire.BitsFor(n)
	return maxDeg * maxDeg * maxDeg * maxDeg * logn
}
