package beepalgs

import (
	"fmt"

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
type WaveBroadcast struct {
	// Source marks the broadcaster; Message/Bits are its payload.
	Source  bool
	Message []byte
	// Bits is the message width (required, > 0).
	Bits int
	// DBound upper-bounds the diameter (default N).
	DBound int
	// EarlyStop lets a node finish as soon as it can neither learn nor
	// relay anything more: marker + 3·Bits + 1 rounds after it heard the
	// marker (the round of its final possible relay), instead of waiting
	// out the global 3(Bits+1)+DBound budget. Decoded outputs are
	// unchanged — every wave a neighbor needs is relayed before the node
	// stops — but runs on low-diameter graphs finish in O(d + Bits)
	// local rounds. Off by default, preserving historical round counts.
	EarlyStop bool

	total     int
	marker    int // round the marker was heard (−1 until then)
	lastRelay int
	relayAt   int
	received  []byte
	finished  bool
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

// Init implements beep.Program.
func (wb *WaveBroadcast) Init(env beep.Env) {
	if wb.DBound <= 0 {
		wb.DBound = env.N
	}
	wb.total = WaveRounds(env.N, wb.Bits, wb.DBound)
	wb.marker = -1
	wb.lastRelay = -3
	wb.relayAt = -1
	wb.received = make([]byte, (wb.Bits+7)/8)
	if wb.Source {
		wb.marker = 0
		copy(wb.received, wb.Message)
	}
}

// Step implements beep.Program.
func (wb *WaveBroadcast) Step(round int) beep.Action {
	if wb.Source {
		if round == 0 {
			return beep.Beep // marker wave
		}
		if round%3 == 0 {
			i := round/3 - 1
			if i < wb.Bits && wire.Bit(wb.Message, i) {
				return beep.Beep
			}
		}
		return beep.Listen
	}
	if wb.relayAt == round {
		wb.lastRelay = round
		wb.relayAt = -1
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.Program.
func (wb *WaveBroadcast) Hear(round int, bit bool) {
	defer func() {
		if round == wb.total-1 {
			wb.finished = true
		} else if wb.EarlyStop && wb.marker >= 0 && round >= wb.marker+3*wb.Bits+1 {
			wb.finished = true
		}
	}()
	if wb.Source || !bit || round == wb.lastRelay {
		return
	}
	// Refractory: ignore echoes within two rounds of our own relay.
	if round < wb.lastRelay+2 {
		return
	}
	if wb.marker == -1 {
		wb.marker = round
	} else {
		offset := round - wb.marker
		if offset%3 == 0 {
			i := offset/3 - 1
			if i >= 0 && i < wb.Bits {
				wire.SetBit(wb.received, i, true)
			}
		}
	}
	wb.relayAt = round + 1
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
	// The round whose Hear sets finished: the global budget's last round,
	// or the early-stop point once the marker has calibrated the clock.
	doneRound := wb.total - 1
	if wb.EarlyStop && wb.marker >= 0 {
		if d := wb.marker + 3*wb.Bits + 1; d < doneRound {
			doneRound = d
		}
	}
	next := doneRound
	if wb.Source {
		// Wave launches at rounds 0, 3, ..., 3·Bits.
		if round < 0 {
			next = 0
		} else if round < 3*wb.Bits {
			next = (round/3 + 1) * 3
		}
	} else if wb.relayAt > round && wb.relayAt < next {
		next = wb.relayAt
	}
	if next <= round {
		next = round + 1
	}
	return next
}

// Output returns the decoded message, or nil if the marker never arrived
// (disconnected node).
func (wb *WaveBroadcast) Output() any {
	if wb.marker == -1 {
		return []byte(nil)
	}
	return wb.received
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
	// EarlyStop enables per-node early termination (WaveBroadcast.EarlyStop).
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
	for v, o := range res.Outputs {
		out[v] = o.([]byte)
	}
	return out, res.Rounds, nil
}

// RunWave is RunWaveBroadcastOpts returning the network's Result as is:
// each Outputs[v] is node v's decoded message as a []byte (nil if the
// marker never reached it). Callers that consume []any outputs take
// them without another O(n) copy.
func RunWave(g *graph.Graph, source int, msg []byte, bits, dBound int, seed uint64, opt WaveOptions) (*beep.Result, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("beepalgs: wave broadcast needs bits > 0")
	}
	if dBound <= 0 {
		dist, _ := g.BFS(source)
		for _, d := range dist {
			if d > dBound {
				dBound = d
			}
		}
		if dBound < 1 {
			dBound = 1
		}
	}
	nw, err := beep.NewNetwork(g, beep.Params{Seed: seed, Metrics: opt.Metrics})
	if err != nil {
		return nil, err
	}
	progs := make([]beep.Program, g.N())
	for v := range progs {
		progs[v] = &WaveBroadcast{
			Source:    v == source,
			Message:   msg,
			Bits:      bits,
			DBound:    dBound,
			EarlyStop: opt.EarlyStop,
		}
	}
	budget := WaveRounds(g.N(), bits, dBound)
	if opt.Sparse {
		return nw.RunSparse(progs, budget)
	}
	return nw.Run(progs, budget)
}
