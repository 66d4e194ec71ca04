package baseline

import (
	"fmt"
	"math/bits"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// SlicedRunner advances up to 64 replicates of the TDMA baseline over a
// noiseless channel at once: lane k of every mask word belongs to
// replicate k. All replicates share the graph, the coloring, and every
// Config field except AlgSeed, the only seed a quiet channel reads.
//
// On a channel that cannot flip a bit the schedule delivers exactly:
// the distance-2 coloring gives every neighbor of a listener a slot of
// its own, and each majority over ρ unflipped copies reads back the sent
// bit. So a round needs no beep windows. The runner collects every
// lane's broadcasts, charges each lane that has senders ρ·(senders +
// payload ones) beeps and one schedule of beep rounds, hands each
// listener its neighbors' messages zero-padded to the bandwidth, and
// receives. Membership and message errors are zero by construction.
//
// Every lane is bit-identical to a standalone Runner with the lane's
// AlgSeed. The serial Runner decodes real reception windows, so the
// conformance suite (per noiseless channel × lane count × workers, lane
// skew included) checks the shortcut rather than assumes it. Per-lane
// done/retire tracking replicates engine.Pool.Loop round accounting, and
// a lane whose round has no senders spends no beep rounds, exactly like
// the serial zero-sender short-circuit. Channels that can flip a bit are
// rejected: their replicates run one by one through Runner.
type SlicedRunner struct {
	g         *graph.Graph
	cfg       Config
	rho       int // per-bit repetition count, as Runner's
	algSeeds  []uint64
	numColors int
	pool      *engine.Pool

	sendMask []uint64            // [v] lanes in which v transmits this round
	doneMask []uint64            // [v] lanes whose node v was done at collect time
	msgs     [][]congest.Message // [lane][v]
	scratch  []*slicedScratch
	m        slicedMetrics
}

// slicedMetrics are the sliced runner's telemetry handles; zero value =
// disabled. Occupancy and retirement are the sliced path's distinctive
// signals: how full the 64-lane words actually run, and how unevenly
// replicates finish.
type slicedMetrics struct {
	lanes      *obs.Counter   // lanes started (one per replicate per Run)
	laneRounds *obs.Counter   // sum over rounds of active lanes
	retired    *obs.Counter   // lanes retired before the round budget
	occupancy  *obs.Histogram // active lanes per executed round
	decodeT    *obs.Timer     // phase: delivery, the serial runner's decode timer
}

// slicedScratch is one pool shard's reusable per-round state.
type slicedScratch struct {
	inbox   [][]congest.Message   // per lane
	msgPool []congest.MessagePool // per lane
	sends   []int64               // per lane, current round
	ones    []int64               // per lane, payload bits set this round
	err     error
	errNode int
}

// NewSlicedRunner builds a sliced baseline runner over g with one lane
// per algorithm seed (at most 64). cfg's AlgSeed is ignored, and so is
// ChannelSeed: the channel must be noiseless (ε = 0, or a Noise model
// that can never flip a bit), which draws no channel randomness.
func NewSlicedRunner(g *graph.Graph, cfg Config, algSeeds []uint64) (*SlicedRunner, error) {
	if len(algSeeds) == 0 || len(algSeeds) > 64 {
		return nil, fmt.Errorf("baseline: %d lanes outside [1, 64]", len(algSeeds))
	}
	model, rho, err := resolveChannel(cfg)
	if err != nil {
		return nil, err
	}
	if !model.Noiseless() {
		return nil, fmt.Errorf("baseline: sliced runs need a noiseless channel; %s can flip bits", model.Spec())
	}
	colors, err := g.DistanceTwoColoring()
	if err != nil {
		return nil, fmt.Errorf("baseline: distance-2 coloring: %w", err)
	}
	r := &SlicedRunner{
		g:         g,
		cfg:       cfg,
		rho:       rho,
		algSeeds:  append([]uint64(nil), algSeeds...),
		numColors: graph.NumColors(colors),
		pool:      engine.NewPool(cfg.Workers),
	}
	n := g.N()
	r.sendMask = make([]uint64, n)
	r.doneMask = make([]uint64, n)
	r.msgs = make([][]congest.Message, len(algSeeds))
	for k := range r.msgs {
		r.msgs[k] = make([]congest.Message, n)
	}
	r.scratch = make([]*slicedScratch, r.pool.NumShards(n))
	for i := range r.scratch {
		inbox := make([][]congest.Message, len(algSeeds))
		for k := range inbox {
			// A node hears at most one sender per non-own color; sizing
			// the inbox (and, via PadInto's reuse, the message pool) up
			// front keeps the delivery loop free of growth reallocations.
			inbox[k] = make([]congest.Message, 0, r.numColors)
		}
		r.scratch[i] = &slicedScratch{
			inbox:   inbox,
			msgPool: make([]congest.MessagePool, len(algSeeds)),
			sends:   make([]int64, len(algSeeds)),
			ones:    make([]int64, len(algSeeds)),
		}
	}
	if reg := cfg.Metrics; reg != nil {
		r.m = slicedMetrics{
			lanes:      reg.Counter("tdma.sliced.lanes"),
			laneRounds: reg.Counter("tdma.sliced.lane_rounds"),
			retired:    reg.Counter("tdma.sliced.retired_early"),
			occupancy:  reg.Histogram("tdma.sliced.occupancy"),
			decodeT:    reg.Timer("tdma.phase.decode_nanos"),
		}
		r.pool.Instrument(&engine.PoolMetrics{
			Do:    reg.Counter("pool.do"),
			Spans: reg.Counter("pool.spans"),
			Wait:  reg.Timer("pool.do_wait_nanos"),
		})
	}
	return r, nil
}

// NumColors returns the schedule length (color classes of G²).
func (r *SlicedRunner) NumColors() int { return r.numColors }

// Rho returns the per-bit repetition count.
func (r *SlicedRunner) Rho() int { return r.rho }

// RoundsPerSimRound mirrors Runner.RoundsPerSimRound.
func (r *SlicedRunner) RoundsPerSimRound() int {
	return r.numColors * (1 + r.cfg.MsgBits) * r.rho
}

// envNoRng mirrors Runner.Env without the algorithm stream, which Run
// derives per lane in one block.
func (r *SlicedRunner) envNoRng(v int) congest.Env {
	return congest.Env{
		ID:        v,
		N:         r.g.N(),
		Degree:    r.g.Degree(v),
		MaxDegree: r.g.MaxDegree(),
		MsgBits:   r.cfg.MsgBits,
	}
}

// Run simulates every lane for at most maxSimRounds Broadcast CONGEST
// rounds: algs[k] is lane k's per-node algorithm set. It returns one
// result per lane, each bit-identical to Runner.Run over the lane's
// seed. Lanes retire independently — a lane whose algorithms all finish
// stops participating while the others continue.
func (r *SlicedRunner) Run(algs [][]congest.BroadcastAlgorithm, maxSimRounds int) ([]*core.Result, error) {
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
			env := r.envNoRng(v)
			env.Rng = &streams[v]
			a.Init(env)
		}
	}
	results := make([]*core.Result, lanes)
	for k := range results {
		results[k] = &core.Result{}
	}

	active := laneMask(lanes) // lanes still inside their round loop
	r.m.lanes.Add(int64(lanes))
	senders := make([]int64, lanes)
	msgBytes := (r.cfg.MsgBits + 7) / 8
	var (
		curRound   int
		curActive  uint64 // lanes collecting this round
		curSenders uint64 // lanes with ≥1 sender this round
	)
	collectPhase := func(s engine.Span) {
		sc := r.scratch[s.Index]
		clear(sc.sends)
		clear(sc.ones)
		sc.err = nil
		for v := s.Lo; v < s.Hi; v++ {
			// One Done() call per (lane, node) feeds both the send skip
			// and the round's done mask; deliverPhase reads the mask
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
	// broadcasts, zero-padded to the bandwidth — what the serial
	// runner's majority decode reads back off a noiseless channel.
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

	total := r.RoundsPerSimRound()
	for round := 0; round < maxSimRounds && active != 0; round++ {
		// Retire lanes whose algorithms all finished — the per-lane image
		// of engine.Pool.Loop's pre-round AllDone check.
		for m := active; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			la := algs[k]
			if r.pool.AllDone(n, func(v int) bool { return la[v].Done() }) {
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
			continue
		}
		for m := curSenders; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			var ones int64
			for _, sc := range r.scratch {
				ones += sc.ones[k]
			}
			// Each sender beeps its ρ-slot presence beacon plus ρ slots
			// per payload one, as the serial runner's slot patterns do.
			results[k].Beeps += int64(r.rho) * (senders[k] + ones)
			results[k].BeepRounds += total
		}
		sp := r.m.decodeT.Start()
		r.pool.Do(n, deliverPhase)
		sp.Stop()
	}
	budgetRounds := maxSimRounds
	if budgetRounds < 0 {
		budgetRounds = 0 // Pool.Loop never counts negative budgets
	}
	for m := active; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		la := algs[k]
		results[k].SimRounds = budgetRounds
		results[k].AllDone = r.pool.AllDone(n, func(v int) bool { return la[v].Done() })
	}
	for k := range results {
		results[k].Outputs = make([]any, n)
		for v, a := range algs[k] {
			results[k].Outputs[v] = a.Output()
		}
	}
	return results, nil
}

// laneMask returns the mask of the low n lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}
