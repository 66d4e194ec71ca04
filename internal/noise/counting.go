package noise

import "math/bits"

// Accountant receives flip counts from a counting sampler. It is the
// telemetry layer's accounting hook (obs.Counter satisfies it) declared
// here as a one-method interface so this package stays free of an obs
// dependency — noise is below obs in the import graph.
//
// Implementations must be safe for concurrent Add calls: distinct
// listeners' samplers run on distinct goroutines but may share one
// accountant.
type Accountant interface {
	// Add records delta applied flips. Deltas are non-negative.
	Add(delta int64)
}

// Counting wraps s so that every flip it actually applies — a received
// slot whose value differs from its pre-noise value — is counted into
// acc. The wrapper is observation-only and preserves the wrapped
// sampler's behavior exactly: it delegates all randomness consumption,
// never reorders or adds stream reads, and counts by comparing words
// before and after (XOR popcount) rather than by re-deriving the
// model's decisions, so receptions are byte-identical wrapped or not.
// Erasure slots that happen to re-assert the current value change no
// bits and count zero, matching the FlipAt definition of a flip
// (returns true iff the reception changes).
//
// acc == nil or s == nil returns s unchanged, so call sites can wrap
// unconditionally.
func Counting(s Sampler, acc Accountant) Sampler {
	if s == nil || acc == nil {
		return s
	}
	return &countingSampler{s: s, acc: acc}
}

// countingSampler snapshots the affected words around each batch apply
// and popcounts the XOR delta. Like any Sampler it is single-listener,
// single-goroutine state; the scratch buffer is reused across windows.
type countingSampler struct {
	s       Sampler
	acc     Accountant
	scratch []uint64
}

func (c *countingSampler) ApplyInto(words []uint64, start, end int) {
	n := (end - start + 63) / 64
	if n < 0 || n > len(words) {
		n = len(words)
	}
	pre := c.snapshot(words[:n])
	c.s.ApplyInto(words, start, end)
	var flips int64
	for i, w := range words[:n] {
		flips += int64(bits.OnesCount64(w ^ pre[i]))
	}
	if flips != 0 {
		c.acc.Add(flips)
	}
}

func (c *countingSampler) FlipAt(t int, bit bool) bool {
	flip := c.s.FlipAt(t, bit)
	if flip {
		c.acc.Add(1)
	}
	return flip
}

func (c *countingSampler) snapshot(words []uint64) []uint64 {
	if cap(c.scratch) < len(words) {
		c.scratch = make([]uint64, len(words))
	}
	c.scratch = c.scratch[:len(words)]
	copy(c.scratch, words)
	return c.scratch
}
