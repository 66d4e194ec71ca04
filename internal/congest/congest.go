// Package congest implements the message-passing models the paper
// simulates: Broadcast CONGEST (every node sends one O(log n)-bit message
// per round to all neighbors) and CONGEST (per-neighbor messages). Both
// engines enforce the bandwidth limit and run algorithms written against
// small state-machine interfaces, so the same algorithm can execute
// natively here or under the beep-level simulation of internal/core.
//
// Broadcast CONGEST delivery semantics: each round a node receives the
// multiset of its neighbors' messages, unordered and without sender
// attribution (canonically sorted for determinism). This is deliberately
// the weakest delivery the beeping simulation can guarantee — the paper's
// footnote 1 notes that codewords cannot be attributed to specific
// neighbors — and algorithms embed IDs in-band when they need them, as
// the paper's Algorithm 3 does. CONGEST algorithms, by contrast, address
// and receive messages by neighbor ID.
package congest

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Message is a bandwidth-limited message. A nil Message means "send
// nothing this round"; note that an all-zero message is distinct from nil.
type Message []byte

// Env is the static per-node information either engine provides.
type Env struct {
	ID        int
	N         int
	Degree    int
	MaxDegree int
	// MsgBits is the bandwidth: messages may carry at most this many bits.
	MsgBits int
	// Rng is the node's private randomness.
	Rng *rng.Stream
}

// NodeStream derives the canonical per-node algorithm randomness for a
// given experiment seed. The native engines and the beep-level simulator
// both use it, so an algorithm run under either executes identically.
func NodeStream(seed uint64, node int) *rng.Stream {
	return rng.New(seed).Split(0x616c67, uint64(node)) // "alg"
}

// NodeStreams returns NodeStream(seed, v) for every v in [0, n) as one
// contiguous block — the per-run bulk path, three allocations total
// instead of three per node.
func NodeStreams(seed uint64, n int) []rng.Stream {
	out := make([]rng.Stream, n)
	parent := rng.New(seed)
	for v := range out {
		parent.Split2Into(&out[v], 0x616c67, uint64(v))
	}
	return out
}

// BroadcastAlgorithm is a per-node program for Broadcast CONGEST.
// Each round the engine calls Broadcast for the node's message (nil to
// stay silent), then Receive with the neighbors' messages. A node whose
// Done returns true stops sending and receiving. Done is monotone: once it
// returns true it keeps returning true, so a finished node never listens
// again and the beep-simulating engines stop computing its receptions
// (TestDoneIsMonotone in internal/sim checks every registered workload).
//
// Every engine (native and beep-simulated) may call distinct nodes'
// callbacks concurrently within a phase when configured with multiple
// workers; algorithms must keep mutable state per node and use only
// Env.Rng for randomness. Returned messages must not be mutated after
// being returned.
//
// The inbox passed to Receive — the slice and the messages it holds — is
// borrowed: it is valid only for the duration of the call, and engines
// reuse the backing buffers on later rounds. Algorithms that need a
// message past the call must copy it.
type BroadcastAlgorithm interface {
	Init(env Env)
	Broadcast(round int) Message
	Receive(round int, msgs []Message)
	Done() bool
	Output() any
}

// Result summarizes an engine run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// AllDone reports whether every node terminated within the budget.
	AllDone bool
	// Outputs holds each node's Output().
	Outputs []any
	// Messages counts messages sent across the run.
	Messages int64
}

// BroadcastEngine runs BroadcastAlgorithms natively.
type BroadcastEngine struct {
	g       *graph.Graph
	msgBits int
	seed    uint64
	pool    *engine.Pool
}

// NewBroadcastEngine creates an engine over g with the given bandwidth in
// bits per message. The engine starts serial; use SetParallelism for
// multi-worker execution.
func NewBroadcastEngine(g *graph.Graph, msgBits int, seed uint64) (*BroadcastEngine, error) {
	if msgBits <= 0 {
		return nil, fmt.Errorf("congest: bandwidth %d bits", msgBits)
	}
	return &BroadcastEngine{g: g, msgBits: msgBits, seed: seed, pool: engine.NewPool(1)}, nil
}

// SetParallelism configures the worker pool the per-round phases run on
// (workers <= 1 serial, engine.AutoWorkers = GOMAXPROCS). Results are
// bit-identical for every setting.
func (e *BroadcastEngine) SetParallelism(workers int) {
	e.pool = engine.NewPool(workers)
}

// Env builds node v's environment.
func (e *BroadcastEngine) Env(v int) Env {
	return Env{
		ID:        v,
		N:         e.g.N(),
		Degree:    e.g.Degree(v),
		MaxDegree: e.g.MaxDegree(),
		MsgBits:   e.msgBits,
		Rng:       NodeStream(e.seed, v),
	}
}

// Collector runs the broadcast-collection phase shared by the native
// engine, the Algorithm 1 runner, and the TDMA baseline: each non-done
// algorithm's validated message lands in msgs[v] (nil for silence or done
// nodes). A Collector is built once per run — its span callback and
// per-shard accumulators are reused every round, so collection performs
// no steady-state allocations. It is not safe for concurrent Collect
// calls (engines run their phases sequentially).
type Collector struct {
	pool      *engine.Pool
	algs      []BroadcastAlgorithm
	msgs      []Message
	msgBits   int
	errPrefix string

	round int
	sends []int64
	errs  []error
	fn    func(engine.Span)
}

// NewCollector builds a collector writing into msgs (one slot per
// algorithm); errPrefix tags validation errors with the engine's name.
func NewCollector(pool *engine.Pool, algs []BroadcastAlgorithm, msgs []Message, msgBits int, errPrefix string) *Collector {
	c := &Collector{
		pool:      pool,
		algs:      algs,
		msgs:      msgs,
		msgBits:   msgBits,
		errPrefix: errPrefix,
		sends:     make([]int64, pool.NumShards(len(algs))),
		errs:      make([]error, pool.NumShards(len(algs))),
	}
	c.fn = c.collectSpan
	return c
}

// Collect gathers round's broadcasts, returning the sender count and the
// first validation error in node order.
func (c *Collector) Collect(round int) (int64, error) {
	c.round = round
	c.pool.Do(len(c.algs), c.fn)
	var total int64
	for i := range c.sends {
		total += c.sends[i]
	}
	for _, err := range c.errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (c *Collector) collectSpan(s engine.Span) {
	var sends int64
	var firstErr error
	for v := s.Lo; v < s.Hi; v++ {
		a := c.algs[v]
		c.msgs[v] = nil
		if a.Done() {
			continue
		}
		m := a.Broadcast(c.round)
		if m == nil {
			continue
		}
		if err := CheckWidth(m, c.msgBits); err != nil {
			firstErr = fmt.Errorf("%s: node %d round %d: %w", c.errPrefix, v, c.round, err)
			break // abandon the span, like the serial loop the error aborts
		}
		c.msgs[v] = m
		sends++
	}
	c.sends[s.Index], c.errs[s.Index] = sends, firstErr
}

// CollectBroadcasts is a one-shot Collector round, for callers that don't
// keep per-run state.
func CollectBroadcasts(pool *engine.Pool, algs []BroadcastAlgorithm, msgs []Message, msgBits, round int, errPrefix string) (int64, error) {
	return NewCollector(pool, algs, msgs, msgBits, errPrefix).Collect(round)
}

// Run initializes and drives the algorithms until all are done or
// maxRounds communication rounds elapse. The send and deliver phases run
// span-parallel on the engine's pool; results are bit-identical to a
// serial run (each phase writes only per-node slots, and delivery is
// canonically sorted).
func (e *BroadcastEngine) Run(algs []BroadcastAlgorithm, maxRounds int) (*Result, error) {
	n := e.g.N()
	if len(algs) != n {
		return nil, fmt.Errorf("congest: %d algorithms for %d nodes", len(algs), n)
	}
	for v, a := range algs {
		a.Init(e.Env(v))
	}
	res := &Result{}
	sent := make([]Message, n)
	done := func(v int) bool { return algs[v].Done() }
	rounds, allDone, err := e.pool.Loop(n, maxRounds, done, func(round int) error {
		count, err := CollectBroadcasts(e.pool, algs, sent, e.msgBits, round, "congest")
		if err != nil {
			return err
		}
		e.pool.Do(n, func(s engine.Span) {
			for v := s.Lo; v < s.Hi; v++ {
				a := algs[v]
				if a.Done() {
					continue
				}
				var inbox []Message
				for _, u := range e.g.Row(v) {
					if sent[u] != nil {
						inbox = append(inbox, sent[u])
					}
				}
				SortMessages(inbox)
				a.Receive(round, inbox)
			}
		})
		res.Messages += count
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rounds = rounds
	res.AllDone = allDone
	res.Outputs = make([]any, n)
	for v, a := range algs {
		res.Outputs[v] = a.Output()
	}
	return res, nil
}

// CheckWidth verifies that m fits in msgBits bits: the byte length must not
// exceed ⌈msgBits/8⌉ and any padding bits in the final byte must be zero
// (so no extra information can be smuggled past the bandwidth limit).
func CheckWidth(m Message, msgBits int) error {
	maxBytes := (msgBits + 7) / 8
	if len(m) > maxBytes {
		return fmt.Errorf("message is %d bytes, bandwidth is %d bits", len(m), msgBits)
	}
	if len(m) == maxBytes && msgBits%8 != 0 {
		if m[len(m)-1]>>(uint(msgBits)%8) != 0 {
			return fmt.Errorf("message uses padding bits beyond the %d-bit bandwidth", msgBits)
		}
	}
	return nil
}

// MessagePool is a grow-on-demand pool of reusable message buffers for
// engines that deliver borrowed inboxes (see BroadcastAlgorithm): buffer
// i is created on first request and reused round to round.
type MessagePool struct {
	bufs [][]byte
}

// Buf returns the i-th buffer sized to size bytes. Contents are whatever
// the previous round left; callers overwrite fully (or use PadInto).
func (p *MessagePool) Buf(i, size int) []byte {
	for len(p.bufs) <= i {
		p.bufs = append(p.bufs, make([]byte, size))
	}
	if cap(p.bufs[i]) < size {
		p.bufs[i] = make([]byte, size)
	}
	return p.bufs[i][:size]
}

// PadInto copies m into the i-th buffer, zero-padding the tail to size
// bytes, and returns the buffer as a Message.
func (p *MessagePool) PadInto(i, size int, m Message) Message {
	buf := p.Buf(i, size)
	n := copy(buf, m)
	for j := n; j < len(buf); j++ {
		buf[j] = 0
	}
	return buf
}

// SortMessages puts a message multiset into its canonical (lexicographic)
// order, the deterministic representation of unattributed delivery. It is
// allocation-free (slices.SortFunc, unlike sort.Slice, builds no closure
// state), so it can sit inside the engines' zero-allocation round loops.
//
// The common engine inbox — a handful of equal-length messages of at
// most 8 bytes — sorts by big-endian integer key instead: for
// equal-length messages that order is exactly bytes.Compare order, and
// the insertion sort skips all comparator calls. Equal keys imply equal
// contents, so the (unstable vs. stable) permutation of duplicates is
// unobservable.
func SortMessages(msgs []Message) {
	if len(msgs) < 2 {
		return
	}
	if L := len(msgs[0]); L <= 8 && len(msgs) <= 32 {
		fixed := true
		for _, m := range msgs[1:] {
			if len(m) != L {
				fixed = false
				break
			}
		}
		if fixed {
			sortFixedSmall(msgs)
			return
		}
	}
	slices.SortFunc(msgs, func(a, b Message) int { return bytes.Compare(a, b) })
}

// beKey folds m's bytes into a big-endian integer; for equal-length
// messages key order coincides with lexicographic byte order.
func beKey(m Message) uint64 {
	var k uint64
	for _, b := range m {
		k = k<<8 | uint64(b)
	}
	return k
}

// sortFixedSmall insertion-sorts equal-length ≤8-byte messages by beKey.
// Keys live in a stack array so each message's bytes are folded once.
func sortFixedSmall(msgs []Message) {
	var keys [32]uint64
	for i, m := range msgs {
		keys[i] = beKey(m)
	}
	for i := 1; i < len(msgs); i++ {
		m, k := msgs[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			msgs[j+1], keys[j+1] = msgs[j], keys[j]
			j--
		}
		msgs[j+1], keys[j+1] = m, k
	}
}
