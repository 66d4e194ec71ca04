package beepalgs

import (
	"fmt"

	"repro/internal/algorithms/leader"
	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/wire"
)

// LeaderElection elects the maximum-ID node by bit-bidding over beep
// waves, the deterministic O(D log n) technique of Förster, Seidel &
// Wattenhofer (§1.2): the ID bits are auctioned from the most significant
// down; in each bit's phase, surviving candidates whose bit is 1 start a
// beep wave that floods the network within DBound rounds (every node
// relays the first beep it hears in the phase); if a wave was observed,
// candidates bidding 0 drop out, and every node records a 1 bit for the
// leader's ID. After all idBits phases, every node has reconstructed the
// maximum ID in its component.
//
// Noiseless model; DBound must upper-bound the diameter (n always works).
// No workload runs this native election (the leader workload runs over
// CONGEST); it lives beside the tests that check it.
type LeaderElection struct {
	// DBound is the per-phase wave budget (default N).
	DBound int

	env       beep.Env
	idBits    int
	candidate bool
	leaderID  int
	heard     bool // wave observed in current phase
	relayAt   int  // round at which to relay the current phase's wave, -1 = none
	total     int
	finished  bool
}

var _ beep.Program = (*LeaderElection)(nil)

// Init implements beep.Program.
func (l *LeaderElection) Init(env beep.Env) {
	l.env = env
	if l.DBound <= 0 {
		l.DBound = env.N
	}
	l.idBits = wire.BitsFor(env.N)
	l.candidate = true
	l.relayAt = -1
	l.total = l.idBits * l.DBound
}

// phase returns the current bit phase (0 = most significant) and the
// position within it.
func (l *LeaderElection) phase(round int) (bitPhase, pos int) {
	return round / l.DBound, round % l.DBound
}

// bidsOne reports whether this candidate bids 1 in the given phase.
func (l *LeaderElection) bidsOne(bitPhase int) bool {
	bit := l.idBits - 1 - bitPhase
	return l.env.ID&(1<<uint(bit)) != 0
}

// Step implements beep.Program.
func (l *LeaderElection) Step(round int) beep.Action {
	bitPhase, pos := l.phase(round)
	if pos == 0 {
		// Phase start: reset wave state; initiators beep immediately.
		l.heard = false
		l.relayAt = -1
		if l.candidate && l.bidsOne(bitPhase) {
			l.heard = true
			return beep.Beep
		}
		return beep.Listen
	}
	if l.relayAt == round {
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.Program.
func (l *LeaderElection) Hear(round int, bit bool) {
	bitPhase, pos := l.phase(round)
	if bit && !l.heard {
		l.heard = true
		if pos+1 < l.DBound {
			l.relayAt = round + 1
		}
	}
	if pos == l.DBound-1 { // phase end: settle the bit
		idBit := l.idBits - 1 - bitPhase
		if l.heard {
			l.leaderID |= 1 << uint(idBit)
			if l.candidate && !l.bidsOne(bitPhase) {
				l.candidate = false
			}
		} else if l.candidate && l.bidsOne(bitPhase) {
			// Impossible in a noiseless run (we beeped ourselves), kept
			// for defensive symmetry.
			l.candidate = false
		}
	}
	// Finish only after the final phase's bit has settled (Done must not
	// flip between Step and Hear, or the engine would withhold the very
	// Hear that settles the last bit).
	if round == l.total-1 {
		l.finished = true
	}
}

// Done implements beep.Program.
func (l *LeaderElection) Done() bool { return l.finished }

// Output returns a leader.Result (shared with the message-passing
// election for verifier reuse).
func (l *LeaderElection) Output() leader.Result {
	return leader.Result{Leader: l.leaderID, IsLeader: l.leaderID == l.env.ID}
}

// NewLeaderElection returns per-node programs with the given diameter
// bound (0 = use n).
func NewLeaderElection(n, dBound int) []beep.Program {
	progs := make([]beep.Program, n)
	for v := range progs {
		progs[v] = &LeaderElection{DBound: dBound}
	}
	return progs
}

// LeaderRounds returns the exact running time: idBits · DBound.
func LeaderRounds(n, dBound int) int {
	if dBound <= 0 {
		dBound = n
	}
	return wire.BitsFor(n) * dBound
}

// RunLeaderElection executes the protocol on a noiseless network.
func RunLeaderElection(g *graph.Graph, dBound int, seed uint64) ([]leader.Result, int, error) {
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	progs := NewLeaderElection(g.N(), dBound)
	res, err := nw.Run(beep.PerNode(progs), LeaderRounds(g.N(), dBound))
	if err != nil {
		return nil, 0, err
	}
	if !res.AllDone {
		return nil, res.Rounds, fmt.Errorf("beepalgs: election did not finish")
	}
	out := make([]leader.Result, g.N())
	for v, p := range progs {
		out[v] = p.(*LeaderElection).Output()
	}
	return out, res.Rounds, nil
}
