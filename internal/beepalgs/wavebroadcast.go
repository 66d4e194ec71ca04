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
// One run keeps all node state flat: RunWave allocates the nodes as one
// []WaveBroadcast of 32-byte structs, each pointing at the run's shared
// configuration, and every node decodes into its own slot of one shared
// payload array. The layout stays one slice of structs, not one array
// per field: a wave front touches a node's fields together, one cache
// line per node instead of one per field.
type WaveBroadcast struct {
	run       *waveRun
	marker    int32 // round the marker was heard (−1 until then)
	lastRelay int32
	relayAt   int32
	id        int32 // the node's index
	finished  bool
}

// waveRun is what every node of one wave run shares: the broadcast's
// parameters and the payload array node v decodes into, at
// payload[v·stride : (v+1)·stride].
type waveRun struct {
	source    int
	message   []byte
	bits      int
	total     int  // the round budget 3(bits+1) + dBound
	earlyStop bool // WaveOptions.EarlyStop
	stride    int  // ⌈bits/8⌉ payload bytes per node
	payload   []byte
}

var (
	_ beep.Program      = (*WaveBroadcast)(nil)
	_ beep.QuietProgram = (*WaveBroadcast)(nil)
)

// WaveRounds returns the exact running time 3(bits+1) + dBound.
func WaveRounds(n, bits, dBound int) int {
	if dBound <= 0 {
		dBound = n
	}
	return 3*(bits+1) + dBound
}

// source reports whether the node is the broadcaster.
func (wb *WaveBroadcast) source() bool { return int(wb.id) == wb.run.source }

// received is the node's slot of the run's payload array.
func (wb *WaveBroadcast) received() []byte {
	lo := int(wb.id) * wb.run.stride
	return wb.run.payload[lo : lo+wb.run.stride : lo+wb.run.stride]
}

// Init implements beep.Program. It allocates nothing: the node's state
// and payload slot already sit in the run's flat arrays.
func (wb *WaveBroadcast) Init(beep.Env) {
	wb.marker = -1
	wb.lastRelay = -3
	wb.relayAt = -1
	if wb.source() {
		wb.marker = 0
		copy(wb.received(), wb.run.message)
	}
}

// Step implements beep.Program.
func (wb *WaveBroadcast) Step(round int) beep.Action {
	if wb.source() {
		if round == 0 {
			return beep.Beep // marker wave
		}
		if round%3 == 0 {
			i := round/3 - 1
			if i < wb.run.bits && wire.Bit(wb.run.message, i) {
				return beep.Beep
			}
		}
		return beep.Listen
	}
	if int(wb.relayAt) == round {
		wb.lastRelay = int32(round)
		wb.relayAt = -1
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.Program.
func (wb *WaveBroadcast) Hear(round int, bit bool) {
	// Refractory: ignore our own relay and its echoes within two rounds.
	if bit && !wb.source() && round >= int(wb.lastRelay)+2 {
		if wb.marker == -1 {
			wb.marker = int32(round)
		} else {
			offset := round - int(wb.marker)
			if offset%3 == 0 {
				i := offset/3 - 1
				if i >= 0 && i < wb.run.bits {
					wire.SetBit(wb.received(), i, true)
				}
			}
		}
		wb.relayAt = int32(round + 1)
	}
	if round == wb.run.total-1 {
		wb.finished = true
	} else if wb.run.earlyStop && wb.marker >= 0 && round >= int(wb.marker)+3*wb.run.bits+1 {
		wb.finished = true
	}
}

// Done implements beep.Program.
func (wb *WaveBroadcast) Done() bool { return wb.finished }

// NextWake implements beep.QuietProgram, the wave protocol's sparse
// schedule: between the rounds returned here the node provably listens in
// silence-tolerant quiescence, so the sparse driver skips it entirely.
// Incoming beeps still drive the node outside this schedule (that is the
// driver's job); NextWake only declares when the node acts on its own —
// the source's wave launches, a pending relay, and the finish round.
func (wb *WaveBroadcast) NextWake(round int) int {
	if wb.finished {
		return beep.NoWake
	}
	run := wb.run
	// The round whose Hear sets finished: the global budget's last round,
	// or the early-stop point once the marker has calibrated the clock.
	doneRound := run.total - 1
	if run.earlyStop && wb.marker >= 0 {
		if d := int(wb.marker) + 3*run.bits + 1; d < doneRound {
			doneRound = d
		}
	}
	next := doneRound
	if wb.source() {
		// Wave launches at rounds 0, 3, ..., 3·bits.
		if round < 0 {
			next = 0
		} else if round < 3*run.bits {
			next = (round/3 + 1) * 3
		}
	} else if relay := int(wb.relayAt); relay > round && relay < next {
		next = relay
	}
	if next <= round {
		next = round + 1
	}
	return next
}

// RunWaveBroadcast executes the protocol on a noiseless network and
// returns each node's decoded message.
func RunWaveBroadcast(g *graph.Graph, source int, msg []byte, bits, dBound int, seed uint64) ([][]byte, int, error) {
	if dBound <= 0 {
		dBound = g.N() // the historical loose default, kept for round-count stability
	}
	return RunWaveBroadcastOpts(g, source, msg, bits, dBound, seed, WaveOptions{})
}

// WaveOptions configures RunWaveBroadcastOpts beyond the historical
// defaults (all-zero = exactly RunWaveBroadcast's behavior).
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

// RunWaveBroadcastOpts executes the protocol on a noiseless network with
// the given execution options and returns each node's decoded message.
// When dBound <= 0 it is tightened to the source's BFS eccentricity
// (instead of RunWaveBroadcast's loose default of n), which is what makes
// the large-n round budget O(D + b) in practice.
func RunWaveBroadcastOpts(g *graph.Graph, source int, msg []byte, bits, dBound int, seed uint64, opt WaveOptions) ([][]byte, int, error) {
	res, err := RunWave(g, source, msg, bits, dBound, seed, opt)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]byte, g.N())
	for v := range out {
		out[v] = res.Payload(v)
	}
	return out, res.Rounds, nil
}

// WaveResult is a finished wave run: the network's Result, and every
// node's decoded message read in place from the run's flat node state.
type WaveResult struct {
	beep.Result
	nodes []WaveBroadcast
}

// Payload returns node v's decoded message, its capped slot of the run's
// payload array, or nil if the marker never reached v (a node outside
// the source's component). The slot is the run's own memory, not a copy.
func (w *WaveResult) Payload(v int) []byte {
	if w.nodes[v].marker == -1 {
		return nil
	}
	return w.nodes[v].received()
}

// RunWave is RunWaveBroadcastOpts without the per-node copy: the result
// reads each node's message off the run's payload array, so checking a
// large run allocates nothing per node.
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
	budget := WaveRounds(g.N(), bits, dBound)
	if budget > math.MaxInt32 {
		return nil, fmt.Errorf("beepalgs: wave budget of %d rounds exceeds 2^31-1", budget)
	}
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed, Metrics: opt.Metrics})
	if err != nil {
		return nil, err
	}
	n := g.N()
	stride := (bits + 7) / 8
	run := &waveRun{
		source:    source,
		message:   msg,
		bits:      bits,
		total:     budget,
		earlyStop: opt.EarlyStop,
		stride:    stride,
		payload:   make([]byte, n*stride),
	}
	nodes := make([]WaveBroadcast, n)
	progs := make([]beep.Program, n)
	for v := range nodes {
		nodes[v] = WaveBroadcast{run: run, id: int32(v)}
		progs[v] = &nodes[v]
	}
	drive := nw.Run
	if opt.Sparse {
		drive = nw.RunSparse
	}
	res, err := drive(progs, budget)
	if err != nil {
		return nil, err
	}
	return &WaveResult{Result: *res, nodes: nodes}, nil
}
