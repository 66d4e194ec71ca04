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
	"math/bits"

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
	// ChannelSeed drives the channel noise, as in core.RunnerConfig. A
	// channel that cannot flip a bit draws no randomness and ignores it.
	ChannelSeed uint64
	// Workers mirrors core.RunnerConfig: the per-node phases run on a
	// deterministic sharded pool, so results are bit-identical for every
	// setting (0 or 1 = serial, engine.AutoWorkers = GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives baseline telemetry — round
	// counters, phase timers, lane occupancy and retirement, and (via
	// the beep channel) per-model noise-flip accounting.
	// Observation-only per the determinism contract.
	Metrics *obs.Registry
}

// maxLanes is the most replicates one Runner advances together: the
// lanes of one mask word.
const maxLanes = 64

// tdmaMetrics are the runner's resolved telemetry handles; the zero
// value is the disabled state. The lane handles are resolved only on a
// quiet channel, where lanes run, and the encode and radio timers only
// with beep windows.
type tdmaMetrics struct {
	simRounds   *obs.Counter   // executed rounds
	emptyRounds *obs.Counter   // rounds no lane sent in (no beep rounds pass)
	encodeT     *obs.Timer     // phase: slot-pattern encoding
	radioT      *obs.Timer     // phase: the TDMA window
	decodeT     *obs.Timer     // phase: majority decode and score, or direct delivery; then receive
	lanes       *obs.Counter   // lanes started (one per replicate per Run)
	laneRounds  *obs.Counter   // sum over rounds of active lanes
	retired     *obs.Counter   // lanes retired before the round budget
	occupancy   *obs.Histogram // active lanes per executed round
}

// DefaultRho returns the per-bit repetition count ρ (odd and positive)
// calibrated to eps, mirroring the core package's repetition table so
// comparisons are apples-to-apples. The runner repeats each bit
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
// baseline for 1 to 64 replicates of one scenario at once: lane k of
// every mask word belongs to the replicate with the k-th algorithm
// seed. All lanes share the graph, the coloring and the Config.
//
// Every round collects each lane's broadcasts, lets every live
// algorithm of a lane without senders hear silence (no beep rounds
// pass for it), charges each lane with senders ρ·(senders + payload
// ones) beeps and one schedule of beep rounds, and delivers. How it
// delivers follows the channel:
//
//   - On a channel that can flip a bit, the runner has exactly one lane
//     and a beep network: senders beep their slot patterns, and every
//     listener majority-decodes its reception window, scored against
//     what was sent.
//   - On a channel that cannot flip a bit, the distance-2 coloring gives
//     every neighbor of a listener a slot of its own and each majority
//     over ρ unflipped copies reads back the sent bit, so the runner
//     hands each listener its neighbors' messages zero-padded to the
//     bandwidth, without windows. Membership and message errors are zero
//     by construction; the tests pin this against the windows.
//
// Per-lane done/retire tracking replicates engine.Pool.Loop's round
// accounting. The runner owns its per-round buffers, so steady-state
// rounds allocate only inside algorithm callbacks; inboxes are borrowed
// per the congest.BroadcastAlgorithm contract.
type Runner struct {
	g         *graph.Graph
	cfg       Config
	rho       int // per-bit repetition count, DefaultRho of the calibration rate
	algSeeds  []uint64
	colors    []int
	numColors int
	pool      *engine.Pool
	// nw carries the beep windows of a noisy channel; nil on a quiet
	// one, which delivers directly.
	nw *beep.Network

	sendMask []uint64            // [v] lanes in which v transmits this round
	doneMask []uint64            // [v] lanes whose node v was done at collect time
	msgs     [][]congest.Message // [lane][v]
	scratch  []*shardScratch

	// Window buffers, allocated with nw.
	patterns  []*bitstring.BitString
	patBuf    []*bitstring.BitString // per-node slot patterns, created lazily
	heard     []*bitstring.BitString
	listening *bitstring.BitString // nodes not done after collection: the window's listeners

	m tdmaMetrics
}

// shardScratch is one execution-pool shard's reusable per-round state.
type shardScratch struct {
	inbox     [][]congest.Message   // per lane
	msgPool   []congest.MessagePool // per lane
	sends     []int64               // per lane, senders this round
	ones      []int64               // per lane, payload bits set this round
	err       error
	errNode   int
	truth     []congest.Message // windows: what a listener's neighbors sent
	truthPool congest.MessagePool
}

// channelModel validates cfg's channel and returns its model. A
// non-empty Noise spec owns the channel (ε must be 0); otherwise the
// channel is symmetric{Epsilon}.
func channelModel(cfg Config) (noise.Model, error) {
	if cfg.Noise == "" {
		model := noise.Symmetric{Eps: cfg.Epsilon}
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		return model, nil
	}
	if cfg.Epsilon != 0 {
		return nil, fmt.Errorf("baseline: both ε = %v and channel %s given; the model owns the channel, leave ε 0", cfg.Epsilon, cfg.Noise)
	}
	model, err := noise.Parse(cfg.Noise)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return model, nil
}

// resolveChannel validates cfg's bandwidth and channel and returns the
// channel model and ρ. Hostile models calibrate ρ against their
// worst-case per-window rate, stochastic ones against their worst
// marginal flip rate.
func resolveChannel(cfg Config) (noise.Model, int, error) {
	if cfg.MsgBits <= 0 {
		return nil, 0, fmt.Errorf("baseline: MsgBits = %d", cfg.MsgBits)
	}
	model, err := channelModel(cfg)
	if err != nil {
		return nil, 0, err
	}
	calibEps := noise.CalibrationRate(model)
	if calibEps >= 0.5 {
		return nil, 0, fmt.Errorf("baseline: channel %s: calibration rate %v outside [0, 0.5)", model.Spec(), calibEps)
	}
	return model, DefaultRho(calibEps), nil
}

// Lanes returns how many replicates one Runner over cfg's channel
// advances together (lanesFor). An invalid channel gets 1, and
// NewRunner reports its error.
func Lanes(cfg Config) int {
	model, err := channelModel(cfg)
	if err != nil {
		return 1
	}
	return lanesFor(model)
}

// lanesFor is the one quiet-channel test: 64 lanes, delivered directly,
// when model cannot flip a bit; else 1, since each noisy replicate reads
// its own beep windows.
func lanesFor(model noise.Model) int {
	if model.Noiseless() {
		return maxLanes
	}
	return 1
}

// NewRunner builds a baseline runner over g with one lane per algorithm
// seed, at most Lanes(cfg) of them.
func NewRunner(g *graph.Graph, cfg Config, algSeeds []uint64) (*Runner, error) {
	model, rho, err := resolveChannel(cfg)
	if err != nil {
		return nil, err
	}
	limit, lanes := lanesFor(model), len(algSeeds)
	if lanes == 0 || lanes > limit {
		return nil, fmt.Errorf("baseline: %d lanes outside [1, %d] on channel %s", lanes, limit, model.Spec())
	}
	colors, err := g.DistanceTwoColoring()
	if err != nil {
		return nil, fmt.Errorf("baseline: distance-2 coloring: %w", err)
	}
	r := &Runner{
		g:         g,
		cfg:       cfg,
		rho:       rho,
		algSeeds:  append([]uint64(nil), algSeeds...),
		colors:    colors,
		numColors: graph.NumColors(colors),
	}
	if limit == 1 {
		if err := r.attachWindows(model); err != nil {
			return nil, err
		}
	} else {
		r.pool = engine.NewPool(cfg.Workers)
		if reg := cfg.Metrics; reg != nil {
			r.pool.Instrument(&engine.PoolMetrics{
				Do:    reg.Counter("pool.do"),
				Spans: reg.Counter("pool.spans"),
				Wait:  reg.Timer("pool.do_wait_nanos"),
			})
			r.m.lanes = reg.Counter("tdma.sliced.lanes")
			r.m.laneRounds = reg.Counter("tdma.sliced.lane_rounds")
			r.m.retired = reg.Counter("tdma.sliced.retired_early")
			r.m.occupancy = reg.Histogram("tdma.sliced.occupancy")
		}
	}
	if reg := cfg.Metrics; reg != nil {
		r.m.simRounds = reg.Counter("tdma.rounds.sim")
		r.m.emptyRounds = reg.Counter("tdma.rounds.empty")
		r.m.decodeT = reg.Timer("tdma.phase.decode_nanos")
	}
	n := g.N()
	r.sendMask = make([]uint64, n)
	r.doneMask = make([]uint64, n)
	r.msgs = make([][]congest.Message, lanes)
	for k := range r.msgs {
		r.msgs[k] = make([]congest.Message, n)
	}
	r.scratch = make([]*shardScratch, r.pool.NumShards(n))
	for i := range r.scratch {
		inbox := make([][]congest.Message, lanes)
		for k := range inbox {
			// A node hears at most one sender per non-own color; sizing
			// the inbox (and, via PadInto's reuse, the message pool) up
			// front keeps delivery free of growth reallocations.
			inbox[k] = make([]congest.Message, 0, r.numColors)
		}
		r.scratch[i] = &shardScratch{
			inbox:   inbox,
			msgPool: make([]congest.MessagePool, lanes),
			sends:   make([]int64, lanes),
			ones:    make([]int64, lanes),
		}
	}
	return r, nil
}

// attachWindows gives the runner a beep network over model, seeded by
// ChannelSeed, and the slot-pattern and reception buffers its windows
// use; the network's pool runs the runner's phases.
func (r *Runner) attachWindows(model noise.Model) error {
	params := beep.Params{
		Epsilon: r.cfg.Epsilon,
		Seed:    r.cfg.ChannelSeed,
		Workers: r.cfg.Workers,
		Metrics: r.cfg.Metrics,
	}
	if r.cfg.Noise != "" {
		params.Noise = model
	}
	nw, err := beep.NewNetwork(r.g, params)
	if err != nil {
		return err
	}
	r.nw, r.pool = nw, nw.Pool()
	if reg := r.cfg.Metrics; reg != nil {
		r.m.encodeT = reg.Timer("tdma.phase.encode_nanos")
		r.m.radioT = reg.Timer("tdma.phase.radio_nanos")
	}
	n := r.g.N()
	r.patterns = make([]*bitstring.BitString, n)
	r.patBuf = make([]*bitstring.BitString, n)
	r.listening = bitstring.New(n)
	r.heard = make([]*bitstring.BitString, n)
	for v := range r.heard {
		r.heard[v] = bitstring.New(r.RoundsPerSimRound())
	}
	return nil
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
	return r.numColors * r.slotLen()
}

// slotLen returns the beep rounds per color slot.
func (r *Runner) slotLen() int { return (1 + r.cfg.MsgBits) * r.rho }

// Run simulates every lane for at most maxSimRounds Broadcast CONGEST
// rounds: algs[k] is lane k's per-node algorithm set. It returns one
// result per lane; lanes retire independently, so a lane whose
// algorithms all finish stops while the others continue. The result
// type is shared with core for comparability; MembershipErrors counts
// presence-detection mistakes (phantom or missed transmissions).
// Results are bit-identical for every Config.Workers.
func (r *Runner) Run(algs [][]congest.BroadcastAlgorithm, maxSimRounds int) ([]*core.Result, error) {
	n := r.g.N()
	lanes := len(r.algSeeds)
	if len(algs) != lanes {
		return nil, fmt.Errorf("baseline: %d algorithm sets for %d lanes", len(algs), lanes)
	}
	for k, la := range algs {
		if len(la) != n {
			return nil, fmt.Errorf("baseline: lane %d: %d algorithms for %d nodes", k, len(la), n)
		}
		streams := congest.NodeStreams(r.algSeeds[k], n)
		for v, a := range la {
			a.Init(congest.Env{
				ID:        v,
				N:         n,
				Degree:    r.g.Degree(v),
				MaxDegree: r.g.MaxDegree(),
				MsgBits:   r.cfg.MsgBits,
				Rng:       &streams[v],
			})
		}
	}
	results := make([]*core.Result, lanes)
	for k := range results {
		results[k] = &core.Result{}
	}
	scores := make([]core.ScoreDelta, len(r.scratch))

	active := ^uint64(0) >> uint(64-lanes) // lanes still inside their round loop
	r.m.lanes.Add(int64(lanes))
	senders := make([]int64, lanes)
	msgBytes := (r.cfg.MsgBits + 7) / 8
	total := r.RoundsPerSimRound()
	var (
		curRound   int
		curActive  uint64 // lanes collecting this round
		curSenders uint64 // lanes with ≥1 sender this round
	)
	// Span callbacks are built once, before the round loop (see the
	// Algorithm 1 runner): steady-state rounds create no closures.
	collectPhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		clear(sc.sends)
		clear(sc.ones)
		sc.err = nil
		for v := s.Lo; v < s.Hi; v++ {
			// The round's done mask holds the lanes whose node v is done
			// once it has broadcast: a node that finishes inside Broadcast
			// still sends but hears nothing this round, as in the
			// Algorithm 1 and CONGEST runners. Delivery reads the mask
			// instead of re-querying every lane (no state changes in
			// between — Receive for v happens after its delivery).
			var dm, sm uint64
			for m := curActive; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				a := algs[k][v]
				r.msgs[k][v] = nil
				if a.Done() {
					dm |= 1 << uint(k)
					continue
				}
				msg := a.Broadcast(curRound)
				if a.Done() {
					dm |= 1 << uint(k)
				}
				if msg == nil {
					continue
				}
				if err := congest.CheckWidth(msg, r.cfg.MsgBits); err != nil {
					sc.err = fmt.Errorf("baseline: node %d round %d: %w", v, curRound, err)
					sc.errNode = v
					return // abandon the span, like the serial loop the error aborts
				}
				r.msgs[k][v] = msg
				sm |= 1 << uint(k)
				sc.sends[k]++
				for _, b := range msg {
					sc.ones[k] += int64(bits.OnesCount8(b))
				}
			}
			r.doneMask[v], r.sendMask[v] = dm, sm
		}
	}
	// deliverPhase hands every listener its neighbors' collected
	// broadcasts, zero-padded to the bandwidth — what the majority
	// decode reads back off a channel that cannot flip a bit.
	deliverPhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		for v := s.Lo; v < s.Hi; v++ {
			need := curSenders &^ r.doneMask[v]
			if need == 0 {
				continue
			}
			for _, u := range r.g.Row(v) {
				for m := r.sendMask[u] & need; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m)
					sc.inbox[k] = append(sc.inbox[k],
						sc.msgPool[k].PadInto(len(sc.inbox[k]), msgBytes, r.msgs[k][u]))
				}
			}
			for m := need; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				inbox := sc.inbox[k]
				congest.SortMessages(inbox)
				algs[k][v].Receive(curRound, inbox)
				sc.inbox[k] = inbox[:0]
			}
		}
	}
	// The window phases serve the one lane of a noisy channel. The encode
	// phase also marks the window's listeners, the nodes the decode phase
	// reads: those not done after collection. Spans are word-aligned, so
	// each writes only its own listening words.
	encodePhase := func(s engine.Span) {
		for v := s.Lo; v < s.Hi; v++ {
			r.listening.SetBool(v, r.doneMask[v] == 0)
			r.patterns[v] = nil
			msg := r.msgs[0][v]
			if msg == nil {
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
				if !wire.Bit(msg, bit) {
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
			if r.doneMask[v] != 0 {
				continue
			}
			inbox := r.decode(v, sc)
			congest.SortMessages(inbox)
			r.score(sc, &scores[s.Index], v, inbox)
			algs[0][v].Receive(curRound, inbox)
			sc.inbox[0] = inbox[:0]
		}
	}

	for round := 0; round < maxSimRounds && active != 0; round++ {
		// Retire lanes whose algorithms all finished — the per-lane image
		// of engine.Pool.Loop's pre-round AllDone check.
		for m := active; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			if allDone(algs[k]) {
				results[k].SimRounds = round
				results[k].AllDone = true
				active &^= 1 << uint(k)
				r.m.retired.Inc()
			}
		}
		if active == 0 {
			break
		}
		curRound, curActive = round, active
		r.m.simRounds.Inc()
		if r.m.occupancy != nil {
			occ := int64(bits.OnesCount64(active))
			r.m.occupancy.Observe(occ)
			r.m.laneRounds.Add(occ)
		}
		r.pool.Do(n, collectPhase)
		var firstErr error
		errNode := n
		clear(senders)
		for _, sc := range r.scratch {
			if sc.err != nil && sc.errNode < errNode {
				firstErr, errNode = sc.err, sc.errNode
			}
			for k := range senders {
				senders[k] += sc.sends[k]
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		curSenders = 0
		for k := range senders {
			if senders[k] > 0 {
				curSenders |= 1 << uint(k)
			}
		}
		// Zero-sender lanes short-circuit the schedule: every live
		// algorithm hears silence and no beep rounds pass.
		for m := active &^ curSenders; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			for _, a := range algs[k] {
				if !a.Done() {
					a.Receive(round, nil)
				}
			}
		}
		if curSenders == 0 {
			r.m.emptyRounds.Inc()
			continue
		}
		for m := curSenders; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			var ones int64
			for _, sc := range r.scratch {
				ones += sc.ones[k]
			}
			// Each sender beeps its ρ-slot presence beacon plus ρ slots
			// per payload one: the ones of its slot pattern.
			results[k].Beeps += int64(r.rho) * (senders[k] + ones)
			results[k].BeepRounds += total
		}
		if r.nw == nil {
			sp := r.m.decodeT.Start()
			r.pool.Do(n, deliverPhase)
			sp.Stop()
			continue
		}
		sp := r.m.encodeT.Start()
		r.pool.Do(n, encodePhase)
		sp.Stop()
		sp = r.m.radioT.Start()
		if err := r.nw.RunPhaseInto(r.patterns, r.heard, r.listening); err != nil {
			return nil, err
		}
		sp.Stop()
		sp = r.m.decodeT.Start()
		r.pool.Do(n, decodePhase)
		sp.Stop()
		results[0].AddScores(scores)
	}
	budgetRounds := max(maxSimRounds, 0) // Pool.Loop never counts negative budgets
	for m := active; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		results[k].SimRounds = budgetRounds
		results[k].AllDone = allDone(algs[k])
	}
	for k := range results {
		results[k].Outputs = make([]any, n)
		for v, a := range algs[k] {
			results[k].Outputs[v] = a.Output()
		}
	}
	return results, nil
}

// allDone reports whether every algorithm of one lane has finished.
func allDone(algs []congest.BroadcastAlgorithm) bool {
	for _, a := range algs {
		if !a.Done() {
			return false
		}
	}
	return true
}

// decode reads every foreign color slot of v's reception window:
// majority presence beacon, then per-bit majority for the payload.
// Messages land in the shard's reusable buffers; the returned inbox is
// borrowed.
func (r *Runner) decode(v int, sc *shardScratch) []congest.Message {
	heard := r.heard[v]
	inbox := sc.inbox[0][:0]
	msgBytes := (r.cfg.MsgBits + 7) / 8
	for c := 0; c < r.numColors; c++ {
		if c == r.colors[v] {
			continue // our own slot (we cannot listen while beeping)
		}
		base := c * r.slotLen()
		if !r.majority(heard, base) {
			continue
		}
		m := sc.msgPool[0].Buf(len(inbox), msgBytes)
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

// score compares v's decoded inbox against what its neighbors sent.
func (r *Runner) score(sc *shardScratch, d *core.ScoreDelta, v int, inbox []congest.Message) {
	msgs := r.msgs[0]
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
