package congest

// Directed is a CONGEST message addressed to a neighbor by node ID.
type Directed struct {
	To  int
	Msg Message
}

// Incoming is a received CONGEST message with sender attribution.
type Incoming struct {
	From int
	Msg  Message
}

// Algorithm is a per-node program for the CONGEST model. Init receives the
// node's neighbor IDs (CONGEST nodes know who their neighbors are; under
// beep-level simulation the same information is obtained by one discovery
// round, per Corollary 12). Send may return at most one message per
// neighbor per round.
//
// As with BroadcastAlgorithm, distinct nodes' callbacks may run
// concurrently when the engine has multiple workers: keep mutable state
// per node and use only Env.Rng for randomness.
type Algorithm interface {
	Init(env Env, neighbors []int)
	Send(round int) []Directed
	Receive(round int, in []Incoming)
	Done() bool
	Output() any
}
