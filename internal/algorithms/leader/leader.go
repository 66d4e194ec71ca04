// Package leader implements max-ID leader election by flooding in
// Broadcast CONGEST: every node repeatedly broadcasts the largest ID it
// has seen, announcing changes only; after diameter-many rounds all nodes
// in a connected component agree, and the maximum declares itself leader.
// Leader election is one of the most-studied beeping-model problems
// (Ghaffari–Haeupler, Förster–Seidel–Wattenhofer, Dufoulon et al., §1.2).
package leader

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// MsgBits returns the bandwidth needed on an n-node graph.
func MsgBits(n int) int { return wire.BitsFor(n) }

// Result is a node's election output.
type Result struct {
	// Leader is the elected node's ID.
	Leader int
	// IsLeader reports whether this node won.
	IsLeader bool
}

// Algorithm floods the maximum ID for a fixed number of rounds (any upper
// bound on the diameter; n always works).
type Algorithm struct {
	// Rounds is the flooding budget (required, ≥ diameter).
	Rounds int

	env     congest.Env
	idBits  int
	best    int
	changed bool
	round   int
}

var _ congest.BroadcastAlgorithm = (*Algorithm)(nil)

// Init implements congest.BroadcastAlgorithm.
func (a *Algorithm) Init(env congest.Env) {
	a.env = env
	a.idBits = wire.BitsFor(env.N)
	if env.MsgBits < MsgBits(env.N) {
		panic(fmt.Sprintf("leader: bandwidth %d < required %d", env.MsgBits, MsgBits(env.N)))
	}
	if a.Rounds <= 0 {
		a.Rounds = env.N
	}
	a.best = env.ID
	a.changed = true
}

// Broadcast implements congest.BroadcastAlgorithm.
func (a *Algorithm) Broadcast(round int) congest.Message {
	if !a.changed {
		return nil
	}
	a.changed = false
	var w wire.Writer
	w.WriteUint(uint64(a.best), a.idBits)
	return w.PaddedBytes(a.env.MsgBits)
}

// Receive implements congest.BroadcastAlgorithm.
func (a *Algorithm) Receive(round int, msgs []congest.Message) {
	for _, m := range msgs {
		id, err := wire.NewReader(m).ReadUint(a.idBits)
		if err != nil || int(id) >= a.env.N {
			continue
		}
		if int(id) > a.best {
			a.best = int(id)
			a.changed = true
		}
	}
	a.round = round + 1
}

// Done implements congest.BroadcastAlgorithm.
func (a *Algorithm) Done() bool { return a.round >= a.Rounds }

// Output returns the node's Result.
func (a *Algorithm) Output() any {
	return Result{Leader: a.best, IsLeader: a.best == a.env.ID}
}

// New returns per-node instances flooding for the given number of rounds.
func New(n, rounds int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &Algorithm{Rounds: rounds}
	}
	return algs
}

// Verify checks that all nodes in each connected component agree on that
// component's maximum ID and exactly the winner claims leadership.
func Verify(g *graph.Graph, outputs []Result) error {
	if len(outputs) != g.N() {
		return fmt.Errorf("leader: %d outputs for %d nodes", len(outputs), g.N())
	}
	comp := components(g)
	maxIn := make(map[int]int)
	for v, c := range comp {
		if cur, ok := maxIn[c]; !ok || v > cur {
			maxIn[c] = v
		}
	}
	for v, out := range outputs {
		want := maxIn[comp[v]]
		if out.Leader != want {
			return fmt.Errorf("leader: node %d elected %d, want %d", v, out.Leader, want)
		}
		if out.IsLeader != (v == want) {
			return fmt.Errorf("leader: node %d leadership claim %v inconsistent", v, out.IsLeader)
		}
	}
	return nil
}

func components(g *graph.Graph) []int {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 {
			continue
		}
		for u, d := range g.BFS(v) {
			if d >= 0 {
				comp[u] = next
			}
		}
		next++
	}
	return comp
}
