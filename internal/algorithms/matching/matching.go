// Package matching implements the paper's §6: maximal matching in
// Broadcast CONGEST via the Propose/Reply/Confirm protocol (Algorithm 3,
// a Luby-style edge matching), together with a centralized reference
// implementation of Algorithm 2 and an output verifier.
//
// Running Algorithm 3 under internal/core's simulator yields Theorem 21's
// O(Δ log² n)-round noisy-beeping maximal matching.
package matching

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Unmatched is the output of a node with no partner.
const Unmatched = -1

// valueBits is the width of the Luby values x(e). The paper samples from
// [n⁹] purely to avoid ties; we use a fixed width and break residual ties
// by edge identifier (DESIGN.md substitution #5).
const valueBits = 24

// Message tags (2 bits). Round 0 is the ID-announcement round and carries
// a bare ID, so tags only appear from round 1 on.
const (
	tagPropose = 1
	tagReply   = 2
	tagConfirm = 3
)

// MsgBits returns the Broadcast CONGEST bandwidth Algorithm 3 needs on an
// n-node graph: a tag, two endpoint IDs, and a value.
func MsgBits(n int) int { return 2 + 2*wire.BitsFor(n) + valueBits }

// MaxRounds returns a generous round budget: Lemma 20 gives termination in
// 4·log₂ n iterations w.h.p., each iteration taking four broadcast rounds,
// plus the ID round.
func MaxRounds(n int) int {
	logn := wire.BitsFor(n)
	return 1 + 4*(4*logn+8)
}

// edge is an ID-ordered edge key.
type edge struct{ lo, hi int }

func mkEdge(a, b int) edge {
	if a > b {
		return edge{lo: b, hi: a}
	}
	return edge{lo: a, hi: b}
}

// proposal is a received or locally-sampled Propose.
type proposal struct {
	e   edge
	val uint64
}

// less orders proposals by value with deterministic edge tie-breaks.
func (p proposal) less(q proposal) bool {
	if p.val != q.val {
		return p.val < q.val
	}
	if p.e.lo != q.e.lo {
		return p.e.lo < q.e.lo
	}
	return p.e.hi < q.e.hi
}

// Algorithm is the per-node state machine for Algorithm 3. The zero value
// is ready for use by a congest engine or the beep-level simulator.
type Algorithm struct {
	env    congest.Env
	idBits int

	alive  map[int]bool // Ev: alive incident edges, keyed by neighbor ID
	values map[int]uint64

	ownProposal  *proposal // our Propose this iteration (nil if none)
	replyTo      *proposal // the e'_v we Replied to this iteration
	sentReply    bool
	gotProposals []proposal
	gotReplyOwn  bool
	gotConfirms  []edge

	partner int
	ceased  bool
}

var _ congest.BroadcastAlgorithm = (*Algorithm)(nil)

// Init implements congest.BroadcastAlgorithm.
func (a *Algorithm) Init(env congest.Env) {
	a.env = env
	a.idBits = wire.BitsFor(env.N)
	a.partner = Unmatched
	a.alive = make(map[int]bool)
	a.values = make(map[int]uint64)
	if want := MsgBits(env.N); env.MsgBits < want {
		panic(fmt.Sprintf("matching: bandwidth %d < required %d", env.MsgBits, want))
	}
}

// phase returns the iteration phase for a broadcast round ≥ 1.
func phase(round int) int { return (round - 1) % 4 }

// Broadcast implements congest.BroadcastAlgorithm.
func (a *Algorithm) Broadcast(round int) congest.Message {
	if round == 0 {
		var w wire.Writer
		w.WriteUint(uint64(a.env.ID), a.idBits)
		return w.PaddedBytes(a.env.MsgBits)
	}
	switch phase(round) {
	case 0:
		return a.broadcastPropose()
	case 1:
		return a.broadcastReply()
	case 2:
		return a.broadcastConfirm1()
	default:
		return a.broadcastConfirm2()
	}
}

// broadcastPropose samples fresh x(e) for e ∈ Hv (edges where we are the
// higher-ID endpoint) and proposes the minimum.
func (a *Algorithm) broadcastPropose() congest.Message {
	a.ownProposal = nil
	a.replyTo = nil
	a.sentReply = false
	a.gotProposals = a.gotProposals[:0]
	a.gotReplyOwn = false
	a.gotConfirms = a.gotConfirms[:0]

	for u := range a.values {
		delete(a.values, u)
	}
	// Deterministic sampling order so native and simulated runs agree.
	neighbors := make([]int, 0, len(a.alive))
	for u := range a.alive {
		neighbors = append(neighbors, u)
	}
	sort.Ints(neighbors)
	for _, u := range neighbors {
		if u < a.env.ID { // we are the higher-ID endpoint
			a.values[u] = a.env.Rng.Uint64() & (1<<valueBits - 1)
		}
	}
	for _, u := range neighbors {
		if u >= a.env.ID {
			continue
		}
		p := proposal{e: mkEdge(a.env.ID, u), val: a.values[u]}
		if a.ownProposal == nil || p.less(*a.ownProposal) {
			prop := p
			a.ownProposal = &prop
		}
	}
	if a.ownProposal == nil {
		return nil
	}
	return a.encode(tagPropose, a.ownProposal.e, a.ownProposal.val)
}

// broadcastReply answers the best incident proposal if it beats our own.
func (a *Algorithm) broadcastReply() congest.Message {
	var best *proposal
	for i := range a.gotProposals {
		p := a.gotProposals[i]
		// Only proposals for edges incident to us matter; since only the
		// higher endpoint proposes, we are p.e.lo.
		if p.e.lo != a.env.ID || !a.alive[p.e.hi] {
			continue
		}
		if best == nil || p.less(*best) {
			best = &a.gotProposals[i]
		}
	}
	if best == nil {
		return nil
	}
	if a.ownProposal != nil && a.ownProposal.less(*best) {
		return nil // our own proposal has priority (x(e'_v) < x(e_v) fails)
	}
	a.replyTo = best
	a.sentReply = true
	return a.encode(tagReply, best.e, 0)
}

// broadcastConfirm1: the proposer confirms if its edge was Replied to and
// it did not itself Reply.
func (a *Algorithm) broadcastConfirm1() congest.Message {
	if a.ownProposal == nil || !a.gotReplyOwn || a.sentReply {
		return nil
	}
	a.partner = a.ownProposal.e.lo // we are hi
	return a.encode(tagConfirm, a.ownProposal.e, 0)
}

// broadcastConfirm2: the replier echoes a Confirm for the edge it Replied
// to, completing the handshake.
func (a *Algorithm) broadcastConfirm2() congest.Message {
	if a.replyTo == nil {
		return nil
	}
	for _, e := range a.gotConfirms {
		if e == a.replyTo.e {
			a.partner = e.hi // we are lo
			return a.encode(tagConfirm, e, 0)
		}
	}
	return nil
}

// Receive implements congest.BroadcastAlgorithm.
func (a *Algorithm) Receive(round int, msgs []congest.Message) {
	if round == 0 {
		for _, m := range msgs {
			id, err := wire.NewReader(m).ReadUint(a.idBits)
			if err == nil && int(id) != a.env.ID && int(id) < a.env.N {
				a.alive[int(id)] = true
			}
		}
		if len(a.alive) == 0 {
			a.ceased = true // isolated node: trivially done, Unmatched
		}
		return
	}
	switch phase(round) {
	case 0:
		for _, m := range msgs {
			if tag, e, val, ok := a.decode(m); ok && tag == tagPropose {
				a.gotProposals = append(a.gotProposals, proposal{e: e, val: val})
			}
		}
	case 1:
		for _, m := range msgs {
			if tag, e, _, ok := a.decode(m); ok && tag == tagReply {
				if a.ownProposal != nil && e == a.ownProposal.e {
					a.gotReplyOwn = true
				}
			}
		}
	case 2, 3:
		for _, m := range msgs {
			if tag, e, _, ok := a.decode(m); ok && tag == tagConfirm {
				a.gotConfirms = append(a.gotConfirms, e)
			}
		}
		a.processConfirms()
		if phase(round) == 2 && a.partner != Unmatched {
			// We sent Confirm1 this round; we cease after it is delivered.
			// (The Confirm2 echo is the partner's job.)
			if a.ownProposal != nil && a.partner == a.ownProposal.e.lo {
				a.ceased = true
			}
		}
		if phase(round) == 3 {
			if a.partner != Unmatched {
				a.ceased = true
			}
			if len(a.alive) == 0 {
				a.ceased = true
			}
		}
	}
}

// processConfirms removes edges to endpoints of confirmed edges (they are
// leaving the graph).
func (a *Algorithm) processConfirms() {
	for _, e := range a.gotConfirms {
		if e.lo != a.env.ID {
			delete(a.alive, e.lo)
		}
		if e.hi != a.env.ID {
			delete(a.alive, e.hi)
		}
	}
}

// Done implements congest.BroadcastAlgorithm.
func (a *Algorithm) Done() bool { return a.ceased }

// Output returns the partner ID, or Unmatched.
func (a *Algorithm) Output() any { return a.partner }

func (a *Algorithm) encode(tag int, e edge, val uint64) congest.Message {
	var w wire.Writer
	w.WriteUint(uint64(tag), 2)
	w.WriteUint(uint64(e.lo), a.idBits)
	w.WriteUint(uint64(e.hi), a.idBits)
	w.WriteUint(val, valueBits)
	return w.PaddedBytes(a.env.MsgBits)
}

func (a *Algorithm) decode(m congest.Message) (tag int, e edge, val uint64, ok bool) {
	r := wire.NewReader(m)
	t, err1 := r.ReadUint(2)
	lo, err2 := r.ReadUint(a.idBits)
	hi, err3 := r.ReadUint(a.idBits)
	v, err4 := r.ReadUint(valueBits)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return 0, edge{}, 0, false
	}
	if t < tagPropose || t > tagConfirm || lo >= hi || int(hi) >= a.env.N {
		return 0, edge{}, 0, false
	}
	return int(t), edge{lo: int(lo), hi: int(hi)}, v, true
}

// New returns per-node Algorithm instances for an n-node run.
func New(n int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &Algorithm{}
	}
	return algs
}

// Verify checks that outputs (partner ID or Unmatched per node) form a
// maximal matching of g: symmetry, edge validity, and maximality.
func Verify(g *graph.Graph, outputs []int) error {
	if len(outputs) != g.N() {
		return fmt.Errorf("matching: %d outputs for %d nodes", len(outputs), g.N())
	}
	for v, p := range outputs {
		if p == Unmatched {
			continue
		}
		if p < 0 || p >= g.N() {
			return fmt.Errorf("matching: node %d output invalid partner %d", v, p)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", v, p)
		}
		if outputs[p] != v {
			return fmt.Errorf("matching: symmetry violated: %d→%d but %d→%d", v, p, p, outputs[p])
		}
	}
	for _, e := range g.Edges() {
		if outputs[e[0]] == Unmatched && outputs[e[1]] == Unmatched {
			return fmt.Errorf("matching: edge (%d,%d) has both endpoints unmatched (not maximal)", e[0], e[1])
		}
	}
	return nil
}
