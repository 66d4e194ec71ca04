package beep

// AlarmFlood is the "beep wave" primitive of Ghaffari & Haeupler for the
// noiseless model: the source beeps in its first active round; every other
// node relays the first beep it hears one round later and then stops. In a
// connected noiseless network every node activates at exactly its BFS
// distance from the source.
//
// RelayRound reports the round in which the node joined the wave — it
// relays in round d for a node at BFS distance d (the source beeps in
// round 0) — or -1 if the wave never arrived.
type AlarmFlood struct {
	// Source marks the initiating node.
	Source bool

	activatedAt int // round the node first heard the wave
	beepRound   int // round in which this node relays (= its distance)
	beeped      bool
}

// Init implements Program.
func (a *AlarmFlood) Init(Env) {
	a.activatedAt = -1
	a.beepRound = -1
	if a.Source {
		a.activatedAt = 0
		a.beepRound = 0
	}
}

// Step implements Program.
func (a *AlarmFlood) Step(round int) Action {
	if a.beepRound == round {
		a.beeped = true
		return Beep
	}
	return Listen
}

// Hear implements Program.
func (a *AlarmFlood) Hear(round int, bit bool) {
	if bit && a.activatedAt == -1 {
		a.activatedAt = round
		a.beepRound = round + 1
	}
}

// Done implements Program.
func (a *AlarmFlood) Done() bool { return a.beeped }

// RelayRound returns the node's relay round (its wave distance), or -1.
func (a *AlarmFlood) RelayRound() int { return a.beepRound }

// NextWake implements QuietProgram: the flood is purely reactive — a node
// acts on its own only at its scheduled relay round (the source's round
// 0); until the wave reaches it, it sleeps indefinitely.
func (a *AlarmFlood) NextWake(round int) int {
	if !a.beeped && a.beepRound > round {
		return a.beepRound
	}
	return NoWake
}

var (
	_ Program      = (*AlarmFlood)(nil)
	_ QuietProgram = (*AlarmFlood)(nil)
)

// RobustFlood is a noise-tolerant wave: time is divided into frames of
// FrameLen rounds; an active node beeps through its two following frames; an
// inactive node activates when it hears at least FrameLen/2 beeps within one
// frame. With that threshold sitting between the noise floor
// (ε·FrameLen) and the signal level ((1−ε)·FrameLen), the wave advances one
// hop per frame with high probability, demonstrating how repetition defeats
// noise at an O(FrameLen) overhead — the same principle Algorithm 1 applies
// with codes instead of brute repetition.
//
// ActivationFrame reports the frame index at which the node activated
// (0 for the source), or -1.
type RobustFlood struct {
	// Source marks the initiating node.
	Source bool
	// FrameLen is the rounds per frame (default 24).
	FrameLen int

	activeFrame  int // frame at which the node activated, -1 if not yet
	heardInFrame int
	doneAt       int // round after which the node is done, -1 = not yet
	round        int
}

// Init implements Program.
func (rf *RobustFlood) Init(Env) {
	if rf.FrameLen <= 0 {
		rf.FrameLen = 24
	}
	rf.activeFrame = -1
	rf.doneAt = -1
	if rf.Source {
		rf.activeFrame = 0
	}
}

// Step implements Program.
func (rf *RobustFlood) Step(round int) Action {
	rf.round = round
	if rf.beepingAt(round) {
		return Beep
	}
	return Listen
}

// beepingAt reports whether the node transmits in round: active nodes beep
// through the two frames following their activation frame.
func (rf *RobustFlood) beepingAt(round int) bool {
	if rf.activeFrame == -1 {
		return false
	}
	frame := round / rf.FrameLen
	return frame > rf.activeFrame && frame <= rf.activeFrame+2
}

// Hear implements Program.
func (rf *RobustFlood) Hear(round int, bit bool) {
	frame := round / rf.FrameLen
	if rf.activeFrame == -1 {
		if bit {
			rf.heardInFrame++
		}
		if (round+1)%rf.FrameLen == 0 {
			if rf.heardInFrame >= rf.FrameLen/2 {
				rf.activeFrame = frame
			}
			rf.heardInFrame = 0
		}
		return
	}
	// Active: finish after our two beeping frames have elapsed.
	if frame >= rf.activeFrame+2 && (round+1)%rf.FrameLen == 0 {
		rf.doneAt = round
	}
}

// Done implements Program.
func (rf *RobustFlood) Done() bool { return rf.doneAt >= 0 && rf.round >= rf.doneAt }

// ActivationFrame returns the activation frame, or -1.
func (rf *RobustFlood) ActivationFrame() int { return rf.activeFrame }

var _ Program = (*RobustFlood)(nil)
