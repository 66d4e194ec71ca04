package beep

import "repro/internal/bitstring"

var (
	_ Program      = (*Transmitter)(nil)
	_ QuietProgram = (*Transmitter)(nil)
)

// Transmitter is a Program that beeps a fixed pattern and records what it
// hears. It is the round-by-round twin of one RunPhase window, the
// reference the equivalence tests pin the word-parallel window against.
type Transmitter struct {
	// Pattern is the beep schedule; nil means silent throughout Rounds.
	Pattern *bitstring.BitString
	// Rounds is the window length (defaults to Pattern length).
	Rounds int

	heard *bitstring.BitString
	done  bool
}

// Init implements Program.
func (tx *Transmitter) Init(Env) {
	if tx.Rounds == 0 && tx.Pattern != nil {
		tx.Rounds = tx.Pattern.Len()
	}
	tx.heard = bitstring.New(tx.Rounds)
	tx.done = tx.Rounds == 0
}

// Step implements Program.
func (tx *Transmitter) Step(round int) Action {
	if tx.Pattern != nil && round < tx.Pattern.Len() && tx.Pattern.Get(round) {
		return Beep
	}
	return Listen
}

// Hear implements Program.
func (tx *Transmitter) Hear(round int, bit bool) {
	if bit {
		tx.heard.Set(round)
	}
	if round == tx.Rounds-1 {
		tx.done = true
	}
}

// Done implements Program.
func (tx *Transmitter) Done() bool { return tx.done }

// Output returns the heard bitstring.
func (tx *Transmitter) Output() any { return tx.heard }

// Heard returns the received bits (valid after the run).
func (tx *Transmitter) Heard() *bitstring.BitString { return tx.heard }

// NextWake implements QuietProgram: a transmitter acts on its own only at
// its pattern's beep rounds and at its final round (whose Hear marks it
// done); everything else is reactive listening the sparse driver supplies
// on demand.
func (tx *Transmitter) NextWake(round int) int {
	if tx.done {
		return NoWake
	}
	if tx.Pattern != nil {
		for r := round + 1; r < tx.Pattern.Len(); r++ {
			if tx.Pattern.Get(r) {
				return r
			}
		}
	}
	if last := tx.Rounds - 1; last > round {
		return last
	}
	return round + 1
}

// Round returns the absolute number of rounds executed so far.
func (nw *Network) Round() int { return nw.round }

// RunPhase is RunPhaseInto with freshly allocated reception buffers,
// returned per node.
func (nw *Network) RunPhase(patterns []*bitstring.BitString) ([]*bitstring.BitString, error) {
	length, err := nw.phaseLength(patterns)
	if err != nil {
		return nil, err
	}
	received := make([]*bitstring.BitString, len(patterns))
	for v := range received {
		received[v] = bitstring.New(length)
	}
	if err := nw.RunPhaseInto(patterns, received, nil); err != nil {
		return nil, err
	}
	return received, nil
}
