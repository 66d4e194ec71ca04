// Package bfstree builds a breadth-first-search tree from a root in
// Broadcast CONGEST: the root announces distance 0; a node adopts
// distance d+1 on first hearing distance d and announces once. With the
// beep-level simulation this is the message-passing counterpart of the
// beep-wave broadcast primitive.
package bfstree

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// MsgBits returns the bandwidth needed on an n-node graph: an ID plus a
// distance counter.
func MsgBits(n int) int { return 2 * wire.BitsFor(n) }

// Result is a node's BFS output.
type Result struct {
	// Dist is the BFS distance from the root, or -1 if unreached.
	Dist int
	// Parent is the lowest-ID neighbor at distance Dist-1, or -1.
	Parent int
}

// Algorithm is the per-node BFS state machine.
type Algorithm struct {
	// Root marks the BFS source.
	Root bool

	env       congest.Env
	idBits    int
	dist      int
	parent    int
	announced bool
}

var _ congest.BroadcastAlgorithm = (*Algorithm)(nil)

// Init implements congest.BroadcastAlgorithm.
func (a *Algorithm) Init(env congest.Env) {
	a.env = env
	a.idBits = wire.BitsFor(env.N)
	if env.MsgBits < MsgBits(env.N) {
		panic(fmt.Sprintf("bfstree: bandwidth %d < required %d", env.MsgBits, MsgBits(env.N)))
	}
	a.dist = -1
	a.parent = -1
	if a.Root {
		a.dist = 0
	}
}

// Broadcast implements congest.BroadcastAlgorithm: announce once, in the
// round equal to our distance (which synchronizes the wavefront).
func (a *Algorithm) Broadcast(round int) congest.Message {
	if a.dist != round || a.announced {
		return nil
	}
	a.announced = true
	var w wire.Writer
	w.WriteUint(uint64(a.env.ID), a.idBits)
	w.WriteUint(uint64(a.dist), a.idBits)
	return w.PaddedBytes(a.env.MsgBits)
}

// Receive implements congest.BroadcastAlgorithm.
func (a *Algorithm) Receive(round int, msgs []congest.Message) {
	if a.dist >= 0 {
		return
	}
	best := -1
	for _, m := range msgs {
		r := wire.NewReader(m)
		id, err1 := r.ReadUint(a.idBits)
		d, err2 := r.ReadUint(a.idBits)
		if err1 != nil || err2 != nil || int(d) != round {
			continue
		}
		if best == -1 || int(id) < best {
			best = int(id)
		}
	}
	if best >= 0 {
		a.dist = round + 1
		a.parent = best
	}
}

// Done implements congest.BroadcastAlgorithm.
func (a *Algorithm) Done() bool { return a.announced }

// Output returns the node's Result.
func (a *Algorithm) Output() any { return Result{Dist: a.dist, Parent: a.parent} }

// New returns per-node instances with the given root.
func New(n, root int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &Algorithm{Root: v == root}
	}
	return algs
}

// Verify checks outputs against the graph's true BFS distances from root
// and validates parent pointers.
func Verify(g *graph.Graph, root int, outputs []Result) error {
	if len(outputs) != g.N() {
		return fmt.Errorf("bfstree: %d outputs for %d nodes", len(outputs), g.N())
	}
	dist := g.BFS(root)
	for v, out := range outputs {
		if out.Dist != int(dist[v]) {
			return fmt.Errorf("bfstree: node %d dist %d, want %d", v, out.Dist, dist[v])
		}
		if v == root || out.Dist < 0 {
			continue
		}
		if out.Parent < 0 || !g.HasEdge(v, out.Parent) {
			return fmt.Errorf("bfstree: node %d parent %d is not a neighbor", v, out.Parent)
		}
		if int(dist[out.Parent]) != out.Dist-1 {
			return fmt.Errorf("bfstree: node %d parent %d at distance %d, want %d",
				v, out.Parent, dist[out.Parent], out.Dist-1)
		}
	}
	return nil
}
