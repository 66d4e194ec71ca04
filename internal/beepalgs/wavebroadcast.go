package beepalgs

import (
	"fmt"
	"math"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wire"
)

// WaveBroadcast is the "beep waves" single-source broadcast of Ghaffari &
// Haeupler, formalized by Czumaj & Davies (§1.2): a b-bit message in
// O(D + b) noiseless beep rounds.
//
// The source launches a marker wave at round 0 and then one wave per
// 1-bit, at round 3(i+1) for message bit i. Waves propagate one hop per
// round: every non-source node relays the first beep of each wave and then
// stays refractory for two rounds, which makes colliding wavefronts
// annihilate (any late arrival of the same wave falls inside some
// neighbor's refractory window). A node at BFS distance d hears the marker
// at round d−1, which calibrates its local clock: message bit i is 1 iff
// it hears a beep exactly 3(i+1) rounds after the marker.
//
// Every node therefore decodes the message after 3(Bits+1) + D rounds —
// the O(D + b) bound — versus Θ(D·b) for naive per-bit flooding.
//
// One WaveBroadcast is one run: the beep.QuietSet of all n nodes. It
// holds the run's configuration and payload array once, and each node's
// state in one slice of 16-byte waveNodes; node v decodes into its slot
// payload[v·stride : (v+1)·stride]. The layout stays one slice of
// structs, not one array per field: a wave front touches a node's fields
// together, one cache line per node instead of one per field.
type WaveBroadcast struct {
	source    int
	message   []byte
	bits      int
	total     int  // the round budget 3(bits+1) + dBound
	earlyStop bool // WaveOptions.EarlyStop
	stride    int  // ⌈bits/8⌉ payload bytes per node
	payload   []byte
	nodes     []waveNode
}

// waveNode is one node's state in a wave run.
type waveNode struct {
	marker    int32 // round the marker was heard (−1 until then)
	lastRelay int32
	relayAt   int32
	finished  bool
}

var _ beep.QuietSet = (*WaveBroadcast)(nil)

// WaveRounds returns the exact running time 3(bits+1) + dBound.
func WaveRounds(bits, dBound int) int { return 3*(bits+1) + dBound }

// received is node v's slot of the run's payload array.
func (wb *WaveBroadcast) received(v int) []byte {
	lo := v * wb.stride
	return wb.payload[lo : lo+wb.stride : lo+wb.stride]
}

// Len implements beep.ProgramSet.
func (wb *WaveBroadcast) Len() int { return len(wb.nodes) }

// Init implements beep.ProgramSet. It allocates nothing: the node's state
// and payload slot already sit in the run's flat arrays.
func (wb *WaveBroadcast) Init(v int, _ beep.Env) {
	nd := &wb.nodes[v]
	*nd = waveNode{marker: -1, lastRelay: -3, relayAt: -1}
	if v == wb.source {
		nd.marker = 0
		copy(wb.received(v), wb.message)
	}
}

// Step implements beep.ProgramSet.
func (wb *WaveBroadcast) Step(v, round int) beep.Action {
	if v == wb.source {
		if round == 0 {
			return beep.Beep // marker wave
		}
		if round%3 == 0 {
			i := round/3 - 1
			if i < wb.bits && wire.Bit(wb.message, i) {
				return beep.Beep
			}
		}
		return beep.Listen
	}
	nd := &wb.nodes[v]
	if int(nd.relayAt) == round {
		nd.lastRelay = int32(round)
		nd.relayAt = -1
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.ProgramSet.
func (wb *WaveBroadcast) Hear(v, round int, bit bool) {
	nd := &wb.nodes[v]
	// Refractory: ignore our own relay and its echoes within two rounds.
	if bit && v != wb.source && round >= int(nd.lastRelay)+2 {
		if nd.marker == -1 {
			nd.marker = int32(round)
		} else {
			offset := round - int(nd.marker)
			if offset%3 == 0 {
				i := offset/3 - 1
				if i >= 0 && i < wb.bits {
					wire.SetBit(wb.received(v), i, true)
				}
			}
		}
		nd.relayAt = int32(round + 1)
	}
	if round == wb.total-1 {
		nd.finished = true
	} else if wb.earlyStop && nd.marker >= 0 && round >= int(nd.marker)+3*wb.bits+1 {
		nd.finished = true
	}
}

// Done implements beep.ProgramSet.
func (wb *WaveBroadcast) Done(v int) bool { return wb.nodes[v].finished }

// NextWake implements beep.QuietSet, the wave protocol's sparse
// schedule: between the rounds returned here node v provably listens in
// silence-tolerant quiescence, so the sparse driver skips it entirely.
// Incoming beeps still drive the node outside this schedule (that is the
// driver's job); NextWake only declares when the node acts on its own —
// the source's wave launches, a pending relay, and the finish round.
func (wb *WaveBroadcast) NextWake(v, round int) int {
	nd := &wb.nodes[v]
	if nd.finished {
		return beep.NoWake
	}
	// The round whose Hear sets finished: the global budget's last round,
	// or the early-stop point once the marker has calibrated the clock.
	doneRound := wb.total - 1
	if wb.earlyStop && nd.marker >= 0 {
		if d := int(nd.marker) + 3*wb.bits + 1; d < doneRound {
			doneRound = d
		}
	}
	next := doneRound
	if v == wb.source {
		// Wave launches at rounds 0, 3, ..., 3·bits.
		if round < 0 {
			next = 0
		} else if round < 3*wb.bits {
			next = (round/3 + 1) * 3
		}
	} else if relay := int(nd.relayAt); relay > round && relay < next {
		next = relay
	}
	if next <= round {
		next = round + 1
	}
	return next
}

// WaveOptions configures RunWave. The zero value drives every node
// densely through the full round budget.
type WaveOptions struct {
	// EarlyStop lets a node finish as soon as it can neither learn nor
	// relay anything more: marker + 3·bits + 1 rounds after it heard the
	// marker (the round of its final possible relay), instead of waiting
	// out the global 3(bits+1)+dBound budget. Decoded outputs are
	// unchanged — every wave a neighbor needs is relayed before the node
	// stops — but runs on low-diameter graphs finish in O(d + bits)
	// local rounds. Off by default, preserving historical round counts.
	EarlyStop bool
	// Sparse drives the run through the network's sparse active-set
	// executor instead of the dense per-round scan. Outputs are identical;
	// per-round cost tracks the wave front instead of n.
	Sparse bool
	// Metrics receives channel telemetry (may be nil).
	Metrics *obs.Registry
}

// WaveResult is a finished wave run: the network's Result, and every
// node's decoded message read in place from the run's flat node state.
type WaveResult struct {
	beep.Result
	wave *WaveBroadcast
}

// Payload returns node v's decoded message, its capped slot of the run's
// payload array, or nil if the marker never reached v (a node outside
// the source's component). The slot is the run's own memory, not a copy.
func (w *WaveResult) Payload(v int) []byte {
	if w.wave.nodes[v].marker == -1 {
		return nil
	}
	return w.wave.received(v)
}

// RunWave executes the protocol on a noiseless network with the given
// execution options. The result reads each node's decoded message off the
// run's payload array, so checking a large run allocates nothing per node.
// When dBound <= 0 it is tightened to the source's BFS eccentricity (at
// least 1), which is what makes the large-n round budget O(D + b) in
// practice.
func RunWave(g *graph.Graph, source int, msg []byte, bits, dBound int, seed uint64, opt WaveOptions) (*WaveResult, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("beepalgs: wave broadcast needs bits > 0")
	}
	if dBound <= 0 {
		for _, d := range g.BFS(source) {
			if int(d) > dBound {
				dBound = int(d)
			}
		}
		if dBound < 1 {
			dBound = 1
		}
	}
	budget := WaveRounds(bits, dBound)
	if budget > math.MaxInt32 {
		return nil, fmt.Errorf("beepalgs: wave budget of %d rounds exceeds 2^31-1", budget)
	}
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed, Metrics: opt.Metrics})
	if err != nil {
		return nil, err
	}
	n := g.N()
	stride := (bits + 7) / 8
	wave := &WaveBroadcast{
		source:    source,
		message:   msg,
		bits:      bits,
		total:     budget,
		earlyStop: opt.EarlyStop,
		stride:    stride,
		payload:   make([]byte, n*stride),
		nodes:     make([]waveNode, n),
	}
	drive := nw.Run
	if opt.Sparse {
		drive = nw.RunSparse
	}
	res, err := drive(wave, budget)
	if err != nil {
		return nil, err
	}
	return &WaveResult{Result: *res, wave: wave}, nil
}
