package beep

// Sparse active-set execution. Wave/broadcast-style protocols keep almost
// every node quiescent almost every round: a node listens in silence
// until the wave front reaches it, acts for a bounded burst, and goes
// quiet again. The dense driver (Run) still pays Θ(n) per round — Step
// and Hear for every node, a full scan of the beep vector. RunSparse
// drives only the active frontier: nodes that will act this round plus
// nodes that hear something, tracked word-granularly with dirty-word
// summary bits so the pool skips quiescent spans entirely. The schedule
// comes from the programs themselves through the QuietSet contract,
// and the run is observationally identical to Run — same Hear/Step
// sequences per node, same Result, same network counters.

import (
	"math"
	"math/bits"

	"repro/internal/bitstring"
	"repro/internal/engine"
)

// NoWake is the NextWake sentinel for "never, absent external input":
// the node stays quiescent until a beep reaches it.
const NoWake = math.MaxInt

// QuietSet is a ProgramSet that can predict its nodes' quiescent
// stretches, the contract that admits it to RunSparse.
//
// NextWake(v, round) returns the earliest round > round in which node v's
// program may act on its own: beep, change state, or become done —
// assuming it hears only silence in between. NoWake means it never will
// (it is purely reactive until a beep arrives). The contract for every
// skipped round r in between: Step(v, r) would return Listen,
// Hear(v, r, false) would change no observable state, and Done(v) stays
// constant. The network re-consults NextWake after every round it drives
// the node (a heard beep may pull the wake-up earlier), and may
// conservatively drive the node in any round — extra drives are always
// safe, per the same contract.
//
// NextWake(v, -1) is the initial query, before round 0.
type QuietSet interface {
	ProgramSet
	NextWake(v, round int) int
}

// QuietProgram is a Program that can predict its quiescent stretches:
// NextWake(round) is its answer to QuietSet's NextWake, under the same
// contract, and PerNode forwards it.
type QuietProgram interface {
	Program
	NextWake(round int) int
}

// sparseState is the reusable frontier state of one RunSparse call.
// Summaries are second-level bitsets: bit w of summary word w>>6 marks
// the bitstring word w as dirty.
type sparseState struct {
	active, next  *bitstring.BitString // driven-by-schedule, this / next round
	beeped, heard *bitstring.BitString
	done          *bitstring.BitString
	activeSum     []uint64 // dirty words of active (and so of beeped)
	nextSum       []uint64
	hearSum       []uint64 // dirty words of heard
	// The wake schedule holds one pending wake per node: wake[v] is v's
	// pending round (0 = none; scheduled rounds are ≥ 1), and the nodes
	// pending for round r form a doubly linked list through link/back
	// that starts at heads[r] (−1 ends a list).
	heads      map[int32]int32
	wake       []int32
	link, back []int32
	doneCount  int
	peak       int // peak driven-node count (frontier occupancy)
}

// schedule makes w, a round ahead of the current one, node v's pending
// wake. A new declaration replaces the pending one: v's latest NextWake
// answer promises silence until w, so a superseded wake could only have
// been an extra drive, which the QuietSet contract makes a no-op.
// A wave relay re-declares the same round at every beep it hears; that
// costs one comparison.
func (st *sparseState) schedule(v int, w int32) {
	old := st.wake[v]
	if old == w {
		return
	}
	if old != 0 {
		st.unlink(v, old)
	}
	h, ok := st.heads[w]
	if !ok {
		h = -1
	} else {
		st.back[h] = int32(v)
	}
	st.link[v], st.back[v] = h, -1
	st.heads[w] = int32(v)
	st.wake[v] = w
}

// unlink removes v from round w's list.
func (st *sparseState) unlink(v int, w int32) {
	prev, next := st.back[v], st.link[v]
	if next >= 0 {
		st.back[next] = prev
	}
	switch {
	case prev >= 0:
		st.link[prev] = next
	case next >= 0:
		st.heads[w] = next
	default:
		delete(st.heads, w)
	}
}

// wakeRound activates the live nodes pending for round r and empties
// its list.
func (st *sparseState) wakeRound(r int32) {
	h, ok := st.heads[r]
	if !ok {
		return
	}
	for v := h; v >= 0; v = st.link[v] {
		st.wake[v] = 0
		if !st.done.Get(int(v)) {
			activate(st.active, st.activeSum, int(v))
		}
	}
	delete(st.heads, r)
}

// activate marks v active in b and its word dirty in sum.
func activate(b *bitstring.BitString, sum []uint64, v int) {
	wi := v >> 6
	sum[wi>>6] |= 1 << (uint(wi) & 63)
	b.Set(v)
}

// sumAnyRange reports whether any summary bit covering bitstring words
// [loW, hiW) is set in either summary (b may be nil).
func sumAnyRange(a, b []uint64, loW, hiW int) bool {
	for wi := loW; wi < hiW; {
		si := wi >> 6
		mask := ^uint64(0) << (uint(wi) & 63)
		if rem := hiW - si*64; rem < 64 {
			mask &= ^uint64(0) >> (64 - uint(rem))
		}
		s := a[si]
		if b != nil {
			s |= b[si]
		}
		if s&mask != 0 {
			return true
		}
		wi = (si + 1) * 64
	}
	return false
}

// RunSparse is Run for QuietSets on quiet channels: identical
// observable behavior — the same Step/Hear sequence per node, the same
// Result, round counter, and beep totals — but per-round work
// proportional to the active frontier, not to n. Rounds in which every
// node sleeps are fast-forwarded in O(1).
//
// The sparse schedule is only sound when silence is exactly the absence
// of neighbor beeps, so RunSparse falls back to the dense driver when the
// channel is noisy (a flipped bit can wake any node any round), when
// Params.RecordBeeps demands a per-round transcript, or when the set is
// not a QuietSet, and for budgets past 2³¹−1 rounds, which its int32
// wake schedule cannot hold. Callers never need to pick a path by hand:
// RunSparse is always correct, and fast when the model admits it.
func (nw *Network) RunSparse(progs ProgramSet, maxRounds int) (*Result, error) {
	qs, quiet := progs.(QuietSet)
	if !quiet || nw.noisy || nw.params.RecordBeeps || maxRounds > math.MaxInt32 {
		return nw.Run(progs, maxRounds)
	}
	if err := nw.initAll(qs, maxRounds); err != nil {
		return nil, err
	}

	n := nw.g.N()
	words := (n + 63) / 64
	sumLen := (words + 63) / 64
	st := &sparseState{
		active:    bitstring.New(n),
		next:      bitstring.New(n),
		beeped:    bitstring.New(n),
		heard:     bitstring.New(n),
		done:      bitstring.New(n),
		activeSum: make([]uint64, sumLen),
		nextSum:   make([]uint64, sumLen),
		hearSum:   make([]uint64, sumLen),
		heads:     make(map[int32]int32),
		wake:      make([]int32, n),
		link:      make([]int32, n),
		back:      make([]int32, n),
	}

	// Seed the schedule: done nodes leave the run, the rest declare their
	// first wake-up.
	for v := 0; v < n; v++ {
		if qs.Done(v) {
			st.done.Set(v)
			st.doneCount++
			continue
		}
		switch w := qs.NextWake(v, -1); {
		case w <= 0:
			activate(st.active, st.activeSum, v)
		case w != NoWake && w < maxRounds:
			st.schedule(v, int32(w))
		}
	}

	// The phase callbacks are built once per run and read the round and
	// the current bitset words through the variables below, so a round
	// allocates nothing.
	var (
		localRound     int
		aw, bw, hw, dw []uint64
	)
	beepParts := make([]int64, nw.pool.NumShards(n))
	// Transmit: Step every active node, span-parallel over the dirty
	// words only. beeped ⊆ active, so activeSum covers it too.
	transmitLive := func(lo, hi int) bool {
		return sumAnyRange(st.activeSum, nil, lo>>6, (hi+63)>>6)
	}
	transmit := func(s engine.Span) {
		var count int64
		for wi := s.Lo >> 6; wi < (s.Hi+63)>>6; wi++ {
			w := aw[wi]
			for w != 0 {
				v := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if qs.Done(v) {
					continue
				}
				if qs.Step(v, localRound) == Beep {
					bw[wi] |= 1 << (uint(v) & 63)
					count++
				}
			}
		}
		beepParts[s.Index] = count
	}
	propagate := func(s engine.Span) {
		nw.g.NeighborhoodOrRange(st.beeped, st.heard, s.Lo, s.Hi)
	}
	// Deliver: every driven node — active by schedule or reached by a
	// beep — hears its bit. Words outside both summaries hold no driven
	// nodes by construction.
	deliverLive := func(lo, hi int) bool {
		return sumAnyRange(st.activeSum, st.hearSum, lo>>6, (hi+63)>>6)
	}
	deliver := func(s engine.Span) {
		for wi := s.Lo >> 6; wi < (s.Hi+63)>>6; wi++ {
			w := (aw[wi] | hw[wi]) &^ dw[wi]
			for w != 0 {
				pos := bits.TrailingZeros64(w)
				w &= w - 1
				v := wi<<6 + pos
				if qs.Done(v) {
					continue
				}
				qs.Hear(v, localRound, (hw[wi]|bw[wi])>>uint(pos)&1 != 0)
			}
		}
	}

	rounds := maxRounds
	allDone := false
	for r := 0; r < maxRounds; r++ {
		if st.doneCount == n {
			rounds, allDone = r, true
			break
		}
		// Wake the sleepers scheduled for this round.
		st.wakeRound(int32(r))
		// Nobody acts: fast-forward to the next scheduled wake-up. The
		// skipped rounds are exactly rounds the dense driver would spend
		// on silent no-ops — noiseless silence consumes no randomness and
		// changes no state — so only the counters advance.
		if !anySet(st.activeSum) {
			next := maxRounds
			for k := range st.heads {
				if int(k) < next {
					next = int(k)
				}
			}
			skip := next - r
			nw.round += skip
			nw.m.rounds.Add(int64(skip))
			r = next - 1
			continue
		}

		localRound = r
		aw, bw = st.active.Words(), st.beeped.Words()
		hw, dw = st.heard.Words(), st.done.Words()
		nw.pool.DoMasked(n, transmitLive, transmit)
		var beeps int64
		for i, c := range beepParts {
			beeps += c
			beepParts[i] = 0
		}
		nw.totalBeeps += beeps
		nw.m.beeps.Add(beeps)

		// Propagate: sender-centric with the frontier update fused in
		// when beeping is sparse; receiver-centric full scan (marking the
		// whole window dirty) when dense. Identical bits either way.
		if beeps > 0 {
			if nw.g.DenseBeepers(st.beeped) {
				if nw.pool.Parallel() {
					nw.pool.Do(n, propagate)
				} else {
					nw.g.NeighborhoodOrRange(st.beeped, st.heard, 0, n)
				}
				markAll(st.hearSum, words)
			} else {
				nw.g.NeighborhoodOrFrontier(st.beeped, st.heard, st.hearSum)
			}
		}

		nw.pool.DoMasked(n, deliverLive, deliver)

		// Serial post-pass over the dirty words: record done transitions,
		// re-consult every driven node's schedule, measure the frontier.
		driven := 0
		for si := 0; si < sumLen; si++ {
			s := st.activeSum[si] | st.hearSum[si]
			for s != 0 {
				wi := si<<6 + bits.TrailingZeros64(s)
				s &= s - 1
				w := (aw[wi] | hw[wi]) &^ dw[wi]
				driven += bits.OnesCount64(w)
				for w != 0 {
					v := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if qs.Done(v) {
						st.done.Set(v)
						st.doneCount++
						continue
					}
					switch wk := qs.NextWake(v, r); {
					case wk <= r+1:
						activate(st.next, st.nextSum, v)
					case wk != NoWake && wk < maxRounds:
						st.schedule(v, int32(wk))
					}
				}
				// Clear the dirty words in place; the summaries are
				// zeroed wholesale below.
				aw[wi], bw[wi], hw[wi] = 0, 0, 0
			}
			st.activeSum[si], st.hearSum[si] = 0, 0
		}
		if driven > st.peak {
			st.peak = driven
		}
		st.active, st.next = st.next, st.active
		st.activeSum, st.nextSum = st.nextSum, st.activeSum

		nw.round++
		nw.m.rounds.Inc()
	}
	if !allDone {
		allDone = st.doneCount == n
	}
	nw.m.frontier.Set(int64(st.peak))
	return &Result{Rounds: rounds, AllDone: allDone}, nil
}

// anySet reports whether any word of a summary is nonzero.
func anySet(sum []uint64) bool {
	for _, w := range sum {
		if w != 0 {
			return true
		}
	}
	return false
}

// markAll sets the summary bits for bitstring words [0, words).
func markAll(sum []uint64, words int) {
	for wi := 0; wi < words; wi += 64 {
		si := wi >> 6
		if words-wi >= 64 {
			sum[si] = ^uint64(0)
		} else {
			sum[si] |= ^uint64(0) >> (64 - uint(words-wi))
		}
	}
}
