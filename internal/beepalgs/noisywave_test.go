package beepalgs

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/wire"
)

// NoisyWaveBroadcast lifts WaveBroadcast from rounds to frames so it
// survives channel noise: each logical round of the beep-wave schedule
// becomes a frame of FrameLen physical rounds; a relaying node beeps
// through its whole frame, and a listener detects a wave in a frame iff it
// hears at least Threshold beeps there (majority voting, the same
// repetition defense RobustFlood and Algorithm 1's codes use).
//
// The frame arithmetic is identical to the noiseless protocol: marker wave
// at frame 0, bit i's wave at frame 3(i+1), relays one frame after
// detection with a two-frame refractory window, decode by frame offset
// from the marker. Total cost is FrameLen·(3(Bits+1) + D) rounds —
// O((D + b)·log) with the log absorbed by the frame length, mirroring how
// the paper absorbs noise into constant-factor redundancy.
//
// This is an extension beyond the paper's toolbox (it only states the
// noiseless beep-wave bound); it demonstrates that the §1.2 primitives
// compose with the same noise defenses as the main construction. No
// workload runs it; it lives beside the tests that check it.
type NoisyWaveBroadcast struct {
	// Source marks the broadcaster; Message/Bits its payload.
	Source  bool
	Message []byte
	// Bits is the message width (required, > 0).
	Bits int
	// DBound upper-bounds the diameter (default N).
	DBound int
	// FrameLen is the physical rounds per logical frame (default 24).
	FrameLen int
	// Threshold is the per-frame detection level (default FrameLen/2).
	Threshold int

	env          beep.Env
	totalFrames  int
	marker       int // frame the marker was detected in (−1 until then)
	lastRelay    int // frame we last relayed in
	relayFrame   int // frame scheduled for relaying, −1 = none
	heardInFrame int
	received     []byte
	finished     bool
}

var _ beep.Program = (*NoisyWaveBroadcast)(nil)

// NoisyWaveRounds returns the exact running time in physical rounds.
func NoisyWaveRounds(n, bits, dBound, frameLen int) int {
	if dBound <= 0 {
		dBound = n
	}
	if frameLen <= 0 {
		frameLen = 24
	}
	return frameLen * (3*(bits+1) + dBound)
}

// Init implements beep.Program.
func (nwb *NoisyWaveBroadcast) Init(env beep.Env) {
	nwb.env = env
	if nwb.DBound <= 0 {
		nwb.DBound = env.N
	}
	if nwb.FrameLen <= 0 {
		nwb.FrameLen = 24
	}
	if nwb.Threshold <= 0 {
		nwb.Threshold = nwb.FrameLen / 2
	}
	nwb.totalFrames = 3*(nwb.Bits+1) + nwb.DBound
	nwb.marker = -1
	nwb.lastRelay = -3
	nwb.relayFrame = -1
	nwb.received = make([]byte, (nwb.Bits+7)/8)
	if nwb.Source {
		nwb.marker = 0
		copy(nwb.received, nwb.Message)
	}
}

// beepsInFrame reports whether the node transmits throughout this frame.
func (nwb *NoisyWaveBroadcast) beepsInFrame(frame int) bool {
	if nwb.Source {
		if frame == 0 {
			return true // marker
		}
		if frame%3 == 0 {
			i := frame/3 - 1
			return i < nwb.Bits && wire.Bit(nwb.Message, i)
		}
		return false
	}
	return nwb.relayFrame == frame
}

// Step implements beep.Program.
func (nwb *NoisyWaveBroadcast) Step(round int) beep.Action {
	if nwb.beepsInFrame(round / nwb.FrameLen) {
		return beep.Beep
	}
	return beep.Listen
}

// Hear implements beep.Program.
func (nwb *NoisyWaveBroadcast) Hear(round int, bit bool) {
	frame := round / nwb.FrameLen
	beeping := nwb.beepsInFrame(frame)
	if bit && !beeping {
		nwb.heardInFrame++
	}
	if (round+1)%nwb.FrameLen != 0 {
		return
	}
	// Frame boundary: settle detection, then reset the counter.
	detected := nwb.heardInFrame >= nwb.Threshold
	nwb.heardInFrame = 0
	if beeping && !nwb.Source {
		nwb.lastRelay = frame
		nwb.relayFrame = -1
	}
	if detected && !nwb.Source && frame >= nwb.lastRelay+2 {
		if nwb.marker == -1 {
			nwb.marker = frame
		} else {
			offset := frame - nwb.marker
			if offset%3 == 0 {
				i := offset/3 - 1
				if i >= 0 && i < nwb.Bits {
					wire.SetBit(nwb.received, i, true)
				}
			}
		}
		if frame+1 < nwb.totalFrames {
			nwb.relayFrame = frame + 1
		}
	}
	if frame == nwb.totalFrames-1 {
		nwb.finished = true
	}
}

// Done implements beep.Program.
func (nwb *NoisyWaveBroadcast) Done() bool { return nwb.finished }

// Output returns the decoded message, or nil if the marker never arrived.
func (nwb *NoisyWaveBroadcast) Output() []byte {
	if nwb.marker == -1 {
		return nil
	}
	return nwb.received
}

// NewNoisyWaveBroadcast returns per-node programs.
func NewNoisyWaveBroadcast(n, source int, msg []byte, bits, dBound, frameLen int) []beep.Program {
	progs := make([]beep.Program, n)
	for v := range progs {
		progs[v] = &NoisyWaveBroadcast{
			Source:   v == source,
			Message:  msg,
			Bits:     bits,
			DBound:   dBound,
			FrameLen: frameLen,
		}
	}
	return progs
}

// RunNoisyWaveBroadcast executes the protocol on a channel with the given
// noise rate and returns each node's decoded message.
func RunNoisyWaveBroadcast(g *graph.Graph, source int, msg []byte, bits, dBound, frameLen int, eps float64, seed uint64) ([][]byte, int, error) {
	if bits <= 0 {
		return nil, 0, fmt.Errorf("beepalgs: noisy wave broadcast needs bits > 0")
	}
	nw, err := beep.NewNetwork(g, beep.Params{Channel: noise.Symmetric{Eps: eps}, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	progs := NewNoisyWaveBroadcast(g.N(), source, msg, bits, dBound, frameLen)
	res, err := nw.Run(beep.PerNode(progs), NoisyWaveRounds(g.N(), bits, dBound, frameLen))
	if err != nil {
		return nil, 0, err
	}
	out := make([][]byte, g.N())
	for v, p := range progs {
		out[v] = p.(*NoisyWaveBroadcast).Output()
	}
	return out, res.Rounds, nil
}
