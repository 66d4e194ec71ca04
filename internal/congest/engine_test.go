package congest

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
)

// The addressed-CONGEST engine below is the native reference these tests
// pin the Directed/Incoming/Algorithm contract with; production runs
// CONGEST algorithms through core.WrapCongest (Corollary 12).

// Engine runs CONGEST algorithms natively.
type Engine struct {
	g       *graph.Graph
	msgBits int
	seed    uint64
	pool    *engine.Pool
}

// NewEngine creates a CONGEST engine over g with the given per-message
// bandwidth in bits. The engine starts serial; use SetParallelism for
// multi-worker execution.
func NewEngine(g *graph.Graph, msgBits int, seed uint64) (*Engine, error) {
	if msgBits <= 0 {
		return nil, fmt.Errorf("congest: bandwidth %d bits", msgBits)
	}
	return &Engine{g: g, msgBits: msgBits, seed: seed, pool: engine.NewPool(1)}, nil
}

// SetParallelism configures the worker pool the per-round phases run on
// (workers <= 1 serial, engine.AutoWorkers = GOMAXPROCS). Results are
// bit-identical for every setting.
func (e *Engine) SetParallelism(workers int) {
	e.pool = engine.NewPool(workers)
}

// Env builds node v's environment.
func (e *Engine) Env(v int) Env {
	return Env{
		ID:        v,
		N:         e.g.N(),
		Degree:    e.g.Degree(v),
		MaxDegree: e.g.MaxDegree(),
		MsgBits:   e.msgBits,
		Rng:       NodeStream(e.seed, v),
	}
}

// Run initializes and drives the algorithms until all are done or
// maxRounds communication rounds elapse.
//
// Each round has two span-parallel phases on the engine's pool: a send
// phase in which every node's validated outbox — copied and sorted by
// destination — lands in its own slot, and a receiver-centric delivery
// phase in which each node gathers the message addressed to it from each
// neighbor's outbox by binary search (O(deg·log Δ) per receiver).
// Scanning the CSR row in neighbor order means inboxes arrive sorted by
// sender exactly as the serial engine delivered them. Results are
// bit-identical for every worker setting.
func (e *Engine) Run(algs []Algorithm, maxRounds int) (*Result, error) {
	n := e.g.N()
	if len(algs) != n {
		return nil, fmt.Errorf("congest: %d algorithms for %d nodes", len(algs), n)
	}
	for v, a := range algs {
		a.Init(e.Env(v), e.g.Neighbors(v))
	}
	res := &Result{}
	outs := make([][]Directed, n)
	done := func(v int) bool { return algs[v].Done() }
	rounds, allDone, err := e.pool.Loop(n, maxRounds, done, func(round int) error {
		send := func(s engine.Span) (int64, error) {
			var sends int64
			for v := s.Lo; v < s.Hi; v++ {
				a := algs[v]
				outs[v] = nil
				if a.Done() {
					continue
				}
				out := a.Send(round)
				seen := make(map[int]bool, len(out))
				for _, d := range out {
					if !e.g.HasEdge(v, d.To) {
						return sends, fmt.Errorf("congest: node %d round %d: sends to non-neighbor %d", v, round, d.To)
					}
					if seen[d.To] {
						return sends, fmt.Errorf("congest: node %d round %d: duplicate message to %d", v, round, d.To)
					}
					seen[d.To] = true
					if err := CheckWidth(d.Msg, e.msgBits); err != nil {
						return sends, fmt.Errorf("congest: node %d round %d: %w", v, round, err)
					}
				}
				// Copy (the algorithm owns its slice) and sort by
				// destination so receivers can binary-search.
				out = append([]Directed(nil), out...)
				sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
				outs[v] = out
				sends += int64(len(out))
			}
			return sends, nil
		}
		// One slot per span; the lowest-numbered failing span's error is
		// the one a serial vertex loop would have hit first.
		counts := make([]int64, e.pool.NumShards(n))
		errs := make([]error, len(counts))
		e.pool.Do(n, func(s engine.Span) {
			counts[s.Index], errs[s.Index] = send(s)
		})
		var count int64
		for i, err := range errs {
			if err != nil {
				return err
			}
			count += counts[i]
		}
		e.pool.Do(n, func(s engine.Span) {
			for v := s.Lo; v < s.Hi; v++ {
				a := algs[v]
				if a.Done() {
					continue
				}
				var in []Incoming
				for _, u := range e.g.Row(v) {
					out := outs[u]
					i, found := sort.Find(len(out), func(i int) int { return v - out[i].To })
					if found {
						in = append(in, Incoming{From: int(u), Msg: out[i].Msg})
					}
				}
				// Row order is ascending, so in is already sorted by From.
				a.Receive(round, in)
			}
		})
		res.Messages += count
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rounds = rounds
	res.AllDone = allDone
	res.Outputs = make([]any, n)
	for v, a := range algs {
		res.Outputs[v] = a.Output()
	}
	return res, nil
}
