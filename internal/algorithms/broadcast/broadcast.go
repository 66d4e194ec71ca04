// Package broadcast implements single-source payload flooding in
// Broadcast CONGEST: the root starts with a payload and every node
// rebroadcasts the first copy it receives, announcing changes only. It is
// the CONGEST-side twin of the beep-level wave broadcast
// (beepalgs.WaveBroadcast), which delivers the same b-bit payload in
// O(D + b) beep rounds — the §1.2 primitive the simulator's broadcast
// workload exercises end to end on both engine families.
package broadcast

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// payloadTag keys the payload derivation ("bcast" in ASCII).
const payloadTag = 0x6263617374

// PayloadBits returns the broadcast payload width on an n-node graph: two
// ID-widths of entropy — wide enough that a wrong decode cannot collide by
// luck, and (with n bounded by MaxInt32) at most 62 bits, so the payload
// always fits one uint64.
func PayloadBits(n int) int { return 2 * wire.BitsFor(n) }

// MsgBits returns the bandwidth needed on an n-node graph.
func MsgBits(n int) int { return PayloadBits(n) }

// payloadValue is the canonical n-node payload as a uint64. The top bit
// is always set: messages are zero-padded on the wire, so an all-zero
// payload would be indistinguishable from "never received".
func payloadValue(n int) uint64 {
	bits := PayloadBits(n)
	v := rng.Mix(payloadTag, uint64(n)) & (^uint64(0) >> (64 - uint(bits)))
	return v | 1<<uint(bits-1)
}

// Payload returns the canonical n-node broadcast payload, a pure function
// of n — so Verify reconstructs it without trusting any node, and the
// workload needs no per-scenario payload parameter.
func Payload(n int) []byte {
	var w wire.Writer
	w.WriteUint(payloadValue(n), PayloadBits(n))
	return w.Bytes()
}

// Algorithm floods the root's payload for a fixed number of rounds (any
// upper bound on the diameter; n always works).
type Algorithm struct {
	// Root marks the broadcasting node.
	Root bool
	// Rounds is the flooding budget (required, ≥ diameter).
	Rounds int

	env     congest.Env
	bits    int
	val     uint64
	have    bool
	changed bool
	round   int
}

var _ congest.BroadcastAlgorithm = (*Algorithm)(nil)

// Init implements congest.BroadcastAlgorithm.
func (a *Algorithm) Init(env congest.Env) {
	a.env = env
	a.bits = PayloadBits(env.N)
	if env.MsgBits < MsgBits(env.N) {
		panic(fmt.Sprintf("broadcast: bandwidth %d < required %d", env.MsgBits, MsgBits(env.N)))
	}
	if a.Rounds <= 0 {
		a.Rounds = env.N
	}
	if a.Root {
		a.val = payloadValue(env.N)
		a.have = true
		a.changed = true
	}
}

// Broadcast implements congest.BroadcastAlgorithm.
func (a *Algorithm) Broadcast(round int) congest.Message {
	if !a.changed {
		return nil
	}
	a.changed = false
	var w wire.Writer
	w.WriteUint(a.val, a.bits)
	return w.PaddedBytes(a.env.MsgBits)
}

// Receive implements congest.BroadcastAlgorithm.
func (a *Algorithm) Receive(round int, msgs []congest.Message) {
	for _, m := range msgs {
		if a.have {
			break
		}
		v, err := wire.NewReader(m).ReadUint(a.bits)
		if err != nil {
			continue
		}
		a.val = v
		a.have = true
		a.changed = true
	}
	a.round = round + 1
}

// Done implements congest.BroadcastAlgorithm.
func (a *Algorithm) Done() bool { return a.round >= a.Rounds }

// Output returns the received payload bytes, or nil if the flood never
// arrived (unreachable node).
func (a *Algorithm) Output() any {
	if !a.have {
		return []byte(nil)
	}
	var w wire.Writer
	w.WriteUint(a.val, a.bits)
	return w.Bytes()
}

// New returns per-node instances flooding from the given root for the
// given number of rounds.
func New(n, root, rounds int) []congest.BroadcastAlgorithm {
	algs := make([]congest.BroadcastAlgorithm, n)
	for v := range algs {
		algs[v] = &Algorithm{Root: v == root, Rounds: rounds}
	}
	return algs
}

// Verify checks n reported outputs, node v's decoded payload read through
// payload(v) (nil for none): every node reachable from the root decoded
// the canonical payload and every unreachable node decoded nothing. The
// accessor lets a caller check payloads where they already sit — a wave
// run's flat payload array, or a CONGEST run's per-node outputs —
// without first copying them into one slice.
func Verify(g *graph.Graph, root, n int, payload func(v int) []byte) error {
	if n != g.N() {
		return fmt.Errorf("broadcast: %d outputs for %d nodes", n, g.N())
	}
	want := Payload(g.N())
	bits := PayloadBits(g.N())
	for v, d := range g.BFS(root) {
		out := payload(v)
		if d >= 0 {
			if !wire.Equal(out, want, bits) {
				return fmt.Errorf("broadcast: node %d decoded %x, want %x", v, out, want)
			}
		} else if out != nil {
			return fmt.Errorf("broadcast: unreachable node %d decoded %x, want nil", v, out)
		}
	}
	return nil
}
