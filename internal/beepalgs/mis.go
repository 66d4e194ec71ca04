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
// NewMIS lays a run's node state out flat, as the wave does: one []MIS of
// 32-byte structs that share one misPhase, and one []rng.Stream holding
// every node's private stream.
type MIS struct {
	phase *misPhase
	rng   *rng.Stream // the node's slot of the run's stream block

	prob      float64
	status    MISStatus
	candidate bool
	conflict  bool
	// beeped records whether the last Step returned Beep, letting Hear
	// distinguish the node's own energy (the model's "receives 1"
	// convention) from a competitor's beep.
	beeped bool
}

// misPhase is the phase shape every node of an n-node run shares.
type misPhase struct {
	verifyRounds int     // k, the conflict-detection window
	length       int     // 1 + k + 1
	minProb      float64 // floor of the adaptive candidacy probability
}

var _ beep.Program = (*MIS)(nil)

// Init implements beep.Program. It allocates nothing: it seeds the
// node's slot of the stream block in place.
func (m *MIS) Init(env beep.Env) {
	env.StreamInto(m.rng)
	m.status = MISUndecided
	m.prob = 0.5
}

// phasePos returns the position within the current phase.
func (m *MIS) phasePos(round int) int { return round % m.phase.length }

// Step implements beep.Program.
func (m *MIS) Step(round int) beep.Action {
	pos := m.phasePos(round)
	m.beeped = false
	switch {
	case pos == 0:
		// Candidacy is a private coin; the round itself is silent (it
		// exists so that Hear can close the previous phase cleanly).
		m.candidate = m.rng.Bool(m.prob)
		m.conflict = false
	case pos <= m.phase.verifyRounds:
		if m.candidate && !m.conflict && m.rng.Bool(0.5) {
			m.beeped = true
		}
	default: // join round
		if m.candidate && !m.conflict {
			m.beeped = true
		}
	}
	if m.beeped {
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.Program.
func (m *MIS) Hear(round int, bit bool) {
	pos := m.phasePos(round)
	switch {
	case pos == 0:
		// Quiet round; nothing to learn.
	case pos <= m.phase.verifyRounds:
		// A beeping node receives its own beep (model convention), so
		// energy is evidence of a competitor only in rounds we listened.
		if m.candidate && !m.conflict && bit && !m.beeped {
			m.conflict = true
			m.prob /= 2
			if m.prob < m.phase.minProb {
				m.prob = m.phase.minProb
			}
		}
	default: // join round
		if m.candidate && !m.conflict {
			m.status = MISIn
			return
		}
		if bit && !m.beeped {
			m.status = MISOut
		}
	}
}

// Done implements beep.Program.
func (m *MIS) Done() bool { return m.status != MISUndecided }

// NewMIS returns an n-node run's node state, one []MIS whose nodes each
// own a slot of one []rng.Stream, and the per-node programs, pointers
// into it.
func NewMIS(n int) ([]MIS, []beep.Program) {
	k := 2*wire.BitsFor(n) + 6
	phase := &misPhase{verifyRounds: k, length: 1 + k + 1, minProb: 1 / float64(n*n+1)}
	nodes := make([]MIS, n)
	streams := make([]rng.Stream, n)
	progs := make([]beep.Program, n)
	for v := range nodes {
		nodes[v] = MIS{phase: phase, rng: &streams[v]}
		progs[v] = &nodes[v]
	}
	return nodes, progs
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
	nodes, progs := NewMIS(g.N())
	res, err := nw.Run(progs, MISMaxRounds(g.N()))
	if err != nil {
		return nil, 0, err
	}
	if !res.AllDone {
		return nil, res.Rounds, fmt.Errorf("beepalgs: MIS did not stabilize in %d rounds", MISMaxRounds(g.N()))
	}
	out := make([]bool, g.N())
	for v := range nodes {
		out[v] = nodes[v].status == MISIn
	}
	return out, res.Rounds, nil
}
