// Package localbroadcast implements the paper's §5: the B-bit Local
// Broadcast problem (Definition 13) used to prove the Ω(Δ log n) and
// Ω(Δ² log n) simulation lower bounds, its Lemma 15 upper bounds, the
// Lemma 14 hard-instance generator, and calculators for the
// transcript-counting bounds of Lemma 14 and Theorem 22.
package localbroadcast

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/bitstring"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Instance is a B-bit Local Broadcast instance: for every ordered edge
// (v,u), a B-bit message from v to u.
type Instance struct {
	// B is the message width in bits.
	B int
	// Msgs[v][u] is v's message for neighbor u.
	Msgs []map[int][]byte
}

// NewRandomInstance draws uniform inputs for every ordered edge of g.
func NewRandomInstance(g *graph.Graph, b int, r *rng.Stream) *Instance {
	inst := &Instance{B: b, Msgs: make([]map[int][]byte, g.N())}
	for v := 0; v < g.N(); v++ {
		inst.Msgs[v] = make(map[int][]byte, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			m := make([]byte, (b+7)/8)
			for i := range m {
				m[i] = byte(r.Uint64())
			}
			if rem := b % 8; rem != 0 {
				m[len(m)-1] &= 1<<uint(rem) - 1
			}
			inst.Msgs[v][u] = m
		}
	}
	return inst
}

// NewHardInstance builds Lemma 14's distribution on the K_{Δ,Δ} hard graph
// (as produced by graph.HardInstance): left-part nodes (IDs < Δ) get
// uniform random messages, all other messages are zero.
func NewHardInstance(g *graph.Graph, delta, b int, r *rng.Stream) *Instance {
	inst := NewRandomInstance(g, b, r)
	for v := delta; v < g.N(); v++ {
		for u := range inst.Msgs[v] {
			inst.Msgs[v][u] = make([]byte, (b+7)/8)
		}
	}
	return inst
}

// Algorithm solves B-bit Local Broadcast in CONGEST per Lemma 15: node v
// sends m_{v→u} to u directly, ⌈B/bandwidth⌉ chunked rounds. Run it under
// core.WrapCongest for the Broadcast CONGEST bound (O(Δ·⌈B/log n⌉)) and
// under the beep simulation for the upper bound matched by Corollary 16.
type Algorithm struct {
	// B is the message width; Inputs the per-neighbor messages.
	B      int
	Inputs map[int][]byte

	env      congest.Env
	chunks   int
	received map[int][]byte
	rounds   int
}

var _ congest.Algorithm = (*Algorithm)(nil)

// Init implements congest.Algorithm.
func (a *Algorithm) Init(env congest.Env, neighbors []int) {
	a.env = env
	a.chunks = (a.B + env.MsgBits - 1) / env.MsgBits
	a.received = make(map[int][]byte, len(neighbors))
	for _, u := range neighbors {
		a.received[u] = make([]byte, (a.B+7)/8)
	}
}

// Send implements congest.Algorithm: round t carries chunk t of every
// message.
func (a *Algorithm) Send(round int) []congest.Directed {
	if round >= a.chunks {
		return nil
	}
	var out []congest.Directed
	for u, m := range a.Inputs {
		var w wire.Writer
		for bit := 0; bit < a.env.MsgBits; bit++ {
			idx := round*a.env.MsgBits + bit
			w.WriteBool(idx < a.B && wire.Bit(m, idx))
		}
		out = append(out, congest.Directed{To: u, Msg: w.PaddedBytes(a.env.MsgBits)})
	}
	return out
}

// Receive implements congest.Algorithm.
func (a *Algorithm) Receive(round int, in []congest.Incoming) {
	for _, inc := range in {
		buf, ok := a.received[inc.From]
		if !ok {
			continue
		}
		for bit := 0; bit < a.env.MsgBits; bit++ {
			idx := round*a.env.MsgBits + bit
			if idx < a.B && wire.Bit(inc.Msg, bit) {
				wire.SetBit(buf, idx, true)
			}
		}
	}
	a.rounds++
}

// Done implements congest.Algorithm.
func (a *Algorithm) Done() bool { return a.rounds >= a.chunks }

// Output returns the received per-neighbor messages.
func (a *Algorithm) Output() any { return a.received }

// NewAlgorithms builds per-node algorithms for an instance.
func NewAlgorithms(inst *Instance) []congest.Algorithm {
	algs := make([]congest.Algorithm, len(inst.Msgs))
	for v := range algs {
		algs[v] = &Algorithm{B: inst.B, Inputs: inst.Msgs[v]}
	}
	return algs
}

// Verify checks outputs (per-node neighbor→message maps) against the
// instance: node v must hold m_{u→v} for every neighbor u.
func Verify(g *graph.Graph, inst *Instance, outputs []any) error {
	if len(outputs) != g.N() {
		return fmt.Errorf("localbroadcast: %d outputs for %d nodes", len(outputs), g.N())
	}
	for v := 0; v < g.N(); v++ {
		got, ok := outputs[v].(map[int][]byte)
		if !ok {
			return fmt.Errorf("localbroadcast: node %d output type %T", v, outputs[v])
		}
		for _, u := range g.Neighbors(v) {
			want := inst.Msgs[u][v]
			if !bytes.Equal(bytes.TrimRight(got[u], "\x00"), bytes.TrimRight(want, "\x00")) {
				return fmt.Errorf("localbroadcast: node %d received %x from %d, want %x", v, got[u], u, want)
			}
		}
	}
	return nil
}

// CongestRoundsNeeded returns Lemma 15's CONGEST upper bound ⌈B/bits⌉.
func CongestRoundsNeeded(b, msgBits int) int { return (b + msgBits - 1) / msgBits }

// Lemma14MinRounds returns the beeping-model lower bound of Lemma 14:
// any algorithm with success probability above 2^{-Δ²B/2} needs more than
// Δ²B/2 rounds.
func Lemma14MinRounds(delta, b int) int { return delta * delta * b / 2 }

// Lemma14SuccessExponent returns log₂ of Lemma 14's success-probability
// bound for a T-round algorithm: the right part's output is determined by
// one of 2^T transcripts while the correct output is uniform over 2^{Δ²B}
// possibilities, so success ≤ 2^{T−Δ²B}. Exponents ≥ 0 mean the bound is
// vacuous (T is large enough).
func Lemma14SuccessExponent(rounds, delta, b int) float64 {
	return float64(rounds) - float64(delta*delta*b)
}

// Theorem22SuccessExponent returns log₂ of Theorem 22's bound for maximal
// matching on K_{Δ,Δ} with IDs from [n⁴]: an r-round algorithm succeeds
// with probability at most 2^r/n^{3Δ}.
func Theorem22SuccessExponent(rounds, delta, n int) float64 {
	// The product is rounded explicitly, so no GOARCH fuses it (DESIGN.md §4).
	return float64(rounds) - float64(3*float64(delta)*math.Log2(float64(n)))
}

// RightTranscript extracts what every right-part node of the hard
// instance hears from one recorded run: per round, whether any left-part
// node (ID < delta) beeped — the {B,S}* string of Lemma 14's proof.
// history is a beep.Network beep history (per-round beep sets over nodes).
func RightTranscript(history []*bitstring.BitString, delta int) string {
	buf := make([]byte, (len(history)+7)/8)
	for t, round := range history {
		for v := 0; v < delta && v < round.Len(); v++ {
			if round.Get(v) {
				buf[t/8] |= 1 << uint(t%8)
				break
			}
		}
	}
	return string(buf)
}
