// Package beepalgs implements algorithms written natively for the
// beeping model — no message passing, only beeps — in the style of the
// prior work the paper's §1.2 and §7 discuss: Afek et al.'s maximal
// independent set and beep-wave leader election (Ghaffari–Haeupler,
// Förster et al.).
//
// Their point in this reproduction is the paper's closing observation
// (§7): the beeping complexity landscape differs from CONGEST's. MIS is
// solvable in log^{O(1)} n beep rounds natively — *independent of Δ* —
// while the generic simulation necessarily pays Θ(Δ log n) per simulated
// round, and for maximal matching the Ω(Δ log n) lower bound (Theorem 22)
// shows no native shortcut can exist. Experiment T11 measures the gap.
package beepalgs

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

// MISStatus is a node's decision state.
type MISStatus uint8

const (
	// MISUndecided nodes are still competing.
	MISUndecided MISStatus = iota
	// MISIn nodes joined the independent set.
	MISIn
	// MISOut nodes have a neighbor in the set.
	MISOut
)

// MIS is a noiseless-beeping maximal independent set protocol with
// adaptive candidacy probabilities (the Afek et al. flavor):
//
// Each phase has 1 + k + 1 rounds, with k = 2·log₂n + 6:
//
//	candidacy   — each undecided node privately becomes a candidate with
//	              its current probability p_v (no communication);
//	verification — for k rounds, each candidate beeps or listens by a
//	              fresh coin each round; a candidate that hears a beep
//	              while listening has an adjacent competitor and aborts
//	              (two adjacent candidates both survive with probability
//	              2^{-k}, a low-probability event);
//	join        — surviving candidates beep and enter the set; undecided
//	              listeners that hear the join beep leave the competition.
//
// A candidate that aborted halves p_v (down to 1/(n²+1)), so dense
// neighborhoods thin out their candidacy rate geometrically — this is
// what makes the running time polylogarithmic independent of Δ, unlike
// a fixed Luby probability which would need degree knowledge.
//
// The protocol assumes the noiseless model; under noise, wrap a
// message-passing MIS in the core simulator instead (that is the paper's
// whole point).
//
// One MIS is one run, laid out flat as the wave is: the beep.ProgramSet
// of all n nodes, holding the phase shape and every node's private
// stream once, and each node's state in one slice of 16-byte misNodes.
type MIS struct {
	verifyRounds int     // k, the conflict-detection window
	length       int     // 1 + k + 1
	minProb      float64 // floor of the adaptive candidacy probability
	streams      []rng.Stream
	nodes        []misNode
}

// misNode is one node's state in an MIS run.
type misNode struct {
	prob      float64
	status    MISStatus
	candidate bool
	conflict  bool
	// beeped records whether the last Step returned Beep, letting Hear
	// distinguish the node's own energy (the model's "receives 1"
	// convention) from a competitor's beep.
	beeped bool
}

var _ beep.ProgramSet = (*MIS)(nil)

// Len implements beep.ProgramSet.
func (m *MIS) Len() int { return len(m.nodes) }

// Init implements beep.ProgramSet. It allocates nothing: it seeds node
// v's slot of the stream block in place.
func (m *MIS) Init(v int, env beep.Env) {
	env.StreamInto(&m.streams[v])
	m.nodes[v] = misNode{prob: 0.5, status: MISUndecided}
}

// Step implements beep.ProgramSet.
func (m *MIS) Step(v, round int) beep.Action {
	nd := &m.nodes[v]
	pos := round % m.length
	nd.beeped = false
	switch {
	case pos == 0:
		// Candidacy is a private coin; the round itself is silent (it
		// exists so that Hear can close the previous phase cleanly).
		nd.candidate = m.streams[v].Bool(nd.prob)
		nd.conflict = false
	case pos <= m.verifyRounds:
		if nd.candidate && !nd.conflict && m.streams[v].Bool(0.5) {
			nd.beeped = true
		}
	default: // join round
		if nd.candidate && !nd.conflict {
			nd.beeped = true
		}
	}
	if nd.beeped {
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.ProgramSet.
func (m *MIS) Hear(v, round int, bit bool) {
	nd := &m.nodes[v]
	pos := round % m.length
	switch {
	case pos == 0:
		// Quiet round; nothing to learn.
	case pos <= m.verifyRounds:
		// A beeping node receives its own beep (model convention), so
		// energy is evidence of a competitor only in rounds we listened.
		if nd.candidate && !nd.conflict && bit && !nd.beeped {
			nd.conflict = true
			nd.prob /= 2
			if nd.prob < m.minProb {
				nd.prob = m.minProb
			}
		}
	default: // join round
		if nd.candidate && !nd.conflict {
			nd.status = MISIn
			return
		}
		if bit && !nd.beeped {
			nd.status = MISOut
		}
	}
}

// Done implements beep.ProgramSet.
func (m *MIS) Done(v int) bool { return m.nodes[v].status != MISUndecided }

// NewMIS returns the program set of an n-node run.
func NewMIS(n int) *MIS {
	k := 2*wire.BitsFor(n) + 6
	return &MIS{
		verifyRounds: k,
		length:       1 + k + 1,
		minProb:      1 / float64(n*n+1),
		streams:      make([]rng.Stream, n),
		nodes:        make([]misNode, n),
	}
}

// MISMaxRounds returns a generous budget: O(log n) phases of O(log n)
// rounds each, with slack.
func MISMaxRounds(n int) int {
	logn := wire.BitsFor(n)
	phaseLen := 1 + (2*logn + 6) + 1
	return phaseLen * (12*logn + 24)
}

// RunMIS executes the native protocol on a noiseless network and returns
// the membership vector. metrics, when non-nil, receives the network's
// channel telemetry (beep.Params.Metrics).
func RunMIS(g *graph.Graph, seed uint64, metrics *obs.Registry) ([]bool, int, error) {
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed, Metrics: metrics})
	if err != nil {
		return nil, 0, err
	}
	set := NewMIS(g.N())
	res, err := nw.Run(set, MISMaxRounds(g.N()))
	if err != nil {
		return nil, 0, err
	}
	if !res.AllDone {
		return nil, res.Rounds, fmt.Errorf("beepalgs: MIS did not stabilize in %d rounds", MISMaxRounds(g.N()))
	}
	out := make([]bool, g.N())
	for v := range out {
		out[v] = set.nodes[v].status == MISIn
	}
	return out, res.Rounds, nil
}
