// Package coloring implements a randomized (Δ+1)-coloring in Broadcast
// CONGEST: undecided nodes repeatedly try a color sampled from their
// remaining palette; a try is kept if no conflicting neighbor with higher
// priority (lower ID) tried the same color, and kept colors are announced
// so neighbors can shrink their palettes. O(log n) iterations w.h.p.
package coloring

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// MsgBits returns the bandwidth needed on an n-node graph with maximum
// degree maxDeg: a tag bit, an ID, and a color in [Δ+1].
func MsgBits(n, maxDeg int) int { return 1 + wire.BitsFor(n) + wire.BitsFor(maxDeg+1) }

// MaxRounds returns a generous budget.
func MaxRounds(n int) int { return 2 * (8*wire.BitsFor(n) + 16) }

// Algorithm is the per-node coloring state machine.
type Algorithm struct {
	env       congest.Env
	idBits    int
	colorBits int

	palette map[int]bool
	try     int
	keep    bool
	color   int
}

var _ congest.BroadcastAlgorithm = (*Algorithm)(nil)

// Init implements congest.BroadcastAlgorithm.
func (a *Algorithm) Init(env congest.Env) {
	a.env = env
	a.idBits = wire.BitsFor(env.N)
	a.colorBits = wire.BitsFor(env.MaxDegree + 1)
	if env.MsgBits < MsgBits(env.N, env.MaxDegree) {
		panic(fmt.Sprintf("coloring: bandwidth %d < required %d", env.MsgBits, MsgBits(env.N, env.MaxDegree)))
	}
	a.palette = make(map[int]bool, env.MaxDegree+1)
	for c := 0; c <= env.MaxDegree; c++ {
		a.palette[c] = true
	}
	a.color = -1
}

// Broadcast implements congest.BroadcastAlgorithm.
func (a *Algorithm) Broadcast(round int) congest.Message {
	if round%2 == 0 { // try round
		if len(a.palette) == 0 {
			// On a noisy channel, phantom decoded neighbours can claim
			// every colour. The node then sits the iteration out: it
			// sends nothing, keeps no colour and draws no randomness.
			a.keep = false
			return nil
		}
		a.try = a.samplePalette()
		a.keep = true
		var w wire.Writer
		w.WriteBool(false)
		w.WriteUint(uint64(a.env.ID), a.idBits)
		w.WriteUint(uint64(a.try), a.colorBits)
		return w.PaddedBytes(a.env.MsgBits)
	}
	if !a.keep {
		return nil
	}
	a.color = a.try
	var w wire.Writer
	w.WriteBool(true)
	w.WriteUint(uint64(a.env.ID), a.idBits)
	w.WriteUint(uint64(a.color), a.colorBits)
	return w.PaddedBytes(a.env.MsgBits)
}

// samplePalette picks a uniform color from the remaining palette
// (iterating in color order for determinism).
func (a *Algorithm) samplePalette() int {
	k := a.env.Rng.Intn(len(a.palette))
	for c := 0; c <= a.env.MaxDegree; c++ {
		if !a.palette[c] {
			continue
		}
		if k == 0 {
			return c
		}
		k--
	}
	panic("coloring: empty palette") // unreachable: Broadcast samples only a non-empty palette
}

// Receive implements congest.BroadcastAlgorithm.
func (a *Algorithm) Receive(round int, msgs []congest.Message) {
	for _, m := range msgs {
		r := wire.NewReader(m)
		final, err1 := r.ReadBool()
		id, err2 := r.ReadUint(a.idBits)
		c, err3 := r.ReadUint(a.colorBits)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if round%2 == 0 {
			if !final && int(c) == a.try && int(id) < a.env.ID {
				a.keep = false // higher-priority neighbor tried our color
			}
		} else if final {
			delete(a.palette, int(c))
		}
	}
}

// Done implements congest.BroadcastAlgorithm.
func (a *Algorithm) Done() bool { return a.color >= 0 }

// Output returns the node's color in [0, Δ].
func (a *Algorithm) Output() any { return a.color }

// New returns per-node instances for an n-node run.
func New(n int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &Algorithm{}
	}
	return algs
}

// Verify checks a proper coloring with at most maxDeg+1 colors.
func Verify(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d outputs for %d nodes", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c > g.MaxDegree() {
			return fmt.Errorf("coloring: node %d has color %d outside [0, Δ]", v, c)
		}
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return fmt.Errorf("coloring: edge (%d,%d) monochromatic (%d)", e[0], e[1], colors[e[0]])
		}
	}
	return nil
}
