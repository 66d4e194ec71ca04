// Package rng provides the deterministic, splittable randomness substrate
// for the reproduction. Every random choice in the system — node codeword
// picks, Luby values, channel noise — flows from a single experiment seed
// through hierarchical stream splits, so that every simulation, test, and
// experiment is reproducible bit-for-bit.
//
// The generator is xoshiro256** seeded via SplitMix64, following the
// reference construction of Blackman & Vigna. Streams are split by hashing
// the parent state with caller-supplied keys (node ID, round, purpose),
// which gives independent-for-our-purposes child streams without shared
// mutable state, so per-node streams can be used concurrently.
package rng

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// SplitMix64 advances the SplitMix64 state *x and returns the next output.
// It is used both for seeding and for cheap key mixing.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes an arbitrary sequence of keys into a single 64-bit value.
// It is the basis of stream splitting.
func Mix(keys ...uint64) uint64 {
	state := uint64(0x6a09e667f3bcc909) // fractional bits of sqrt(2)
	for _, k := range keys {
		state ^= k
		_ = SplitMix64(&state)
		state ^= state >> 29
	}
	return SplitMix64(&state)
}

// Stream is a deterministic pseudo-random stream. The zero value is not
// usable; construct with New or Split.
type Stream struct {
	s    [4]uint64
	seed [4]uint64 // state at construction: the stream's split identity
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	st := new(Stream)
	st.reseed(seed)
	return st
}

// reseed initializes st in place exactly as New seeds a fresh stream.
func (st *Stream) reseed(seed uint64) {
	sm := seed
	for i := range st.s {
		st.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	st.seed = st.s
}

// Split derives an independent child stream keyed by keys. Splitting is a
// pure function of the parent's *seed identity*, not its consumption
// position: it hashes the state the parent was constructed with (not the
// current, mutated generator state) together with the keys, so consuming
// from the parent before splitting never changes its children. Use
// distinct keys for distinct purposes.
func (r *Stream) Split(keys ...uint64) *Stream {
	all := make([]uint64, 0, len(keys)+4)
	all = append(all, r.seed[0], r.seed[1], r.seed[2], r.seed[3])
	all = append(all, keys...)
	return New(Mix(all...))
}

// Split2Into seeds dst with the child stream Split(a, b) would return,
// without allocating. Engines deriving one stream per node per lane use
// it to fill pre-allocated stream blocks.
func (r *Stream) Split2Into(dst *Stream, a, b uint64) {
	dst.reseed(Mix(r.seed[0], r.seed[1], r.seed[2], r.seed[3], a, b))
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**). It
// works on local copies of the state, which keeps it within the
// compiler's inlining budget, so hot loops such as gap draws pay no
// call for it.
func (r *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection method.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs uniformly at random (Fisher–Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// SampleDistinct returns k distinct uniform values from [0, n) in arbitrary
// order. It panics if k > n or either is negative. It uses Floyd's
// algorithm, O(k) expected time and space.
func (r *Stream) SampleDistinct(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: SampleDistinct with invalid k, n")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// FlipSampler yields the positions of independent Bernoulli(p) successes
// over a stream of trials, using geometric skipping: expected O(p·n) work
// to scan n trials. It is the channel-noise sampler: each listening slot is
// flipped with probability ε, and FlipSampler enumerates exactly the
// flipped slots.
type FlipSampler struct {
	r       *Stream
	p       float64
	invLog  float64   // 1 / ln(1-p)
	cells   *gapCells // p's proven gaps, nil where they do not pay
	proved  bool      // cells is resolved (on the first XorFlipsInto)
	next    int       // next flip position (absolute trial index)
	certain bool      // p >= 1: every trial flips
}

// NewFlipSampler returns a sampler over Bernoulli(p) trials starting at
// trial 0. p is clamped to [0, 1]; a NaN p panics, since no rate
// validation upstream should have let one through.
func NewFlipSampler(r *Stream, p float64) *FlipSampler {
	if p != p {
		panic("rng: NewFlipSampler: p is NaN")
	}
	fs := &FlipSampler{r: r, p: p}
	switch {
	case p <= 0:
		fs.next = math.MaxInt
	case p >= 1:
		fs.certain = true
		fs.next = 0
	default:
		fs.invLog = 1 / math.Log1p(-p)
		fs.next = -1
		fs.advance()
	}
	return fs
}

// Peek returns the next flip position without consuming it. If p = 0 the
// returned position is effectively infinite (math.MaxInt).
func (fs *FlipSampler) Peek() int { return fs.next }

// Skip consumes the current flip position.
func (fs *FlipSampler) Skip() { fs.advance() }

// XorFlipsInto XORs the sampler's flip positions in [start, end) into
// words: absolute position abs lands on bit abs-start. Positions before
// start are consumed and discarded (they belong to windows the caller
// already processed). It is the batch form of enumerating positions one
// Peek/Skip at a time and flipping each — one call per reception window
// instead of one call and one bounds-checked bit flip per noise event —
// and consumes the underlying stream identically, so the enumerated
// positions are bit-for-bit those the scalar loop yields
// (FuzzXorFlipsInto pins the two).
func (fs *FlipSampler) XorFlipsInto(words []uint64, start, end int) {
	next := fs.next
	if next >= end {
		return
	}
	if need := (end - start + 63) >> 6; end > start && len(words) < need {
		panic(fmt.Sprintf("rng: XorFlipsInto: %d words cannot hold window [%d,%d) (%d bits need %d words)",
			len(words), start, end, end-start, need))
	}
	if fs.certain {
		for ; next < end; next++ {
			if next >= start {
				i := next - start
				words[i>>6] ^= 1 << (uint(i) & 63)
			}
		}
		fs.next = next
		return
	}
	for next < start { // stale positions from earlier windows
		next += 1 + fs.gap()
	}
	// A sampler takes its rate's cells on its first window, so one that
	// never draws a window, or is built only for its rate, proves none.
	if !fs.proved {
		fs.cells, fs.proved = sharedGapCells(fs.p, fs.invLog), true
	}
	if fs.cells != nil {
		fs.next = fs.xorProvenFlips(words, start, end, next)
		return
	}
	for next < end {
		i := next - start
		words[i>>6] ^= 1 << (uint(i) & 63)
		next += 1 + fs.gap()
	}
	fs.next = next
}

// xorProvenFlips is XorFlipsInto's flip loop for a sampler with proven
// cells, from flip position next ≥ start: it looks each draw's gap up
// inline and calls gapAfter only where the draw's cell is unproven. It
// returns the first flip position at or past end. It is a method of its
// own so that XorFlipsInto's loop without cells compiles to the same
// machine code as in a build with no table path.
func (fs *FlipSampler) xorProvenFlips(words []uint64, start, end, next int) int {
	r, cells := fs.r, fs.cells
	for next < end {
		i := next - start
		words[i>>6] ^= 1 << (uint(i) & 63)
		x := r.Uint64() >> 11
		g := cells.at(x)
		if g < 0 {
			g = fs.gapAfter(x)
		}
		next += 1 + g
	}
	return next
}

// gap draws one Geometric(p) inter-flip gap: floor(ln(U)/ln(1-p)) has the
// right distribution for the number of failures before the next success.
// It is the single source of gap draws, so the batch and scalar paths
// consume the underlying stream identically by construction. U is the
// draw Stream.Float64 makes, x·2⁻⁵³ from one Uint64, and a zero draw is
// redrawn; the gap is exactGap's value, which fastGap returns without a
// logarithm whenever it can prove it.
func (fs *FlipSampler) gap() int {
	x := fs.r.Uint64() >> 11
	for x == 0 {
		x = fs.r.Uint64() >> 11
	}
	if g, ok := fastGap(x, fs.invLog); ok {
		return g
	}
	return exactGap(x, fs.invLog)
}

// gapAfter is gap for a first draw x the caller already took from the
// stream: xorProvenFlips' path for a draw whose cell is unproven. It
// repeats gap's body because gap calling it would cost the loop without
// cells one more call per draw.
func (fs *FlipSampler) gapAfter(x uint64) int {
	for x == 0 {
		x = fs.r.Uint64() >> 11
	}
	if g, ok := fastGap(x, fs.invLog); ok {
		return g
	}
	return exactGap(x, fs.invLog)
}

// exactGap is the definition of a gap draw: int(ln(u)·invLog) for
// u = x·2⁻⁵³, clamped at 0, with invLog = 1/ln(1-p). Every record was
// produced by this floating-point expression, so it stays the oracle
// fastGap is tested against and the fallback it defers to.
func exactGap(x uint64, invLog float64) int {
	g := int(math.Log(float64(x)/(1<<53)) * invLog)
	if g < 0 {
		g = 0
	}
	return g
}

// gapTableBits is the number of mantissa bits fastGap looks up.
const gapTableBits = 8

// gapTable holds, for each mantissa bucket c = 1 + i/2⁸, ln c and
// 2⁻⁵²/c. It does not depend on p, so every sampler shares it.
var gapTable = func() (tab [1 << gapTableBits]struct{ ln, inv float64 }) {
	for i := range tab {
		c := 1 + float64(i)/(1<<gapTableBits)
		tab[i].ln = math.Log1p(float64(i) / (1 << gapTableBits))
		tab[i].inv = 1 / (c * (1 << 52))
	}
	return tab
}()

const (
	// gapMargin widens fastGap's bracket of ln u on both sides. The
	// bracket's own rounding, math.Log's error and the rounding of the
	// product with invLog together stay below 1e-13 in ln u, which is
	// at most 53·ln 2 in magnitude; the margin is four orders larger.
	gapMargin = 1e-9
	// maxFastGap caps the gaps fastGap answers, so both ends convert
	// to int exactly; larger gaps (p below about 1e-14) fall back.
	maxFastGap = 1 << 52
)

// fastGap returns exactGap(x, invLog) and true when it can prove that
// value from a bracket of ln u, and false when the caller must evaluate
// exactGap. Write u = m·2^-(s+1) with m ∈ [1, 2), and m = c·(1+t) with c
// the table bucket of m's top mantissa bits, so 0 ≤ t < 2⁻⁸. Then
// ln u = ln c + ln(1+t) − (s+1)·ln 2, and t − t²/2 ≤ ln(1+t) ≤ t puts
// ln u in a bracket at most 2⁻¹⁷ wide. Widened by gapMargin, the bracket
// holds the value math.Log returns, and after multiplying by invLog it
// holds the exact expression's product. If both ends have the same
// integer part, that is the gap. The product is positive, so a low end
// in (−1, 0) still truncates to the right gap of 0.
func fastGap(x uint64, invLog float64) (int, bool) {
	s := bits.LeadingZeros64(x) - 11 // x<<s ∈ [2⁵², 2⁵³) for x ∈ [1, 2⁵³)
	xn := x << uint(s)
	e := &gapTable[(xn>>(52-gapTableBits))&(1<<gapTableBits-1)]
	t := float64(xn&(1<<(52-gapTableBits)-1)) * e.inv
	a := e.ln + t - float64(s+1)*math.Ln2 // ln u ∈ [a − t²/2, a]
	lo := (a + gapMargin) * invLog        // invLog < 0 reverses the bracket
	hi := (a - 0.5*t*t - gapMargin) * invLog
	if hi < maxFastGap {
		if g := int(lo); g == int(hi) {
			return g, true
		}
	}
	return 0, false
}

// gapCellExps is the number of binary exponents a gapCells table covers:
// draws u ≥ 2⁻¹⁶, all but a 2⁻¹⁶ share of them.
const gapCellExps = 16

// minProvenMass is the share of draws a rate's proven cells must carry
// for XorFlipsInto to look them up. Below it, a lookup that misses costs
// more than the calls it saves.
const minProvenMass = 0.9

// gapCells holds, for one rate, the gap every draw of a cell yields, or
// −1 where the cell holds more than one gap. Cell (s, i) holds the draws x
// with fastGap's exponent s and top mantissa bits i: u ∈ [c_i, c_{i+1})·
// 2^-(s+1), with c_i = 1 + i/2⁸. fastGap's argument, applied to the whole
// cell, brackets ln u by [ln c_i, ln c_{i+1}] − (s+1)·ln 2 widened by
// gapMargin; when both ends of the bracket times invLog truncate to one
// integer, every x in the cell has that exactGap.
type gapCells [gapCellExps][1 << gapTableBits]int32

// at returns the proven gap of draw x's cell, or −1 when the cell is
// unproven or x lies below every cell (x = 0 included). It inlines into
// XorFlipsInto's flip loop.
func (c *gapCells) at(x uint64) int {
	s := bits.LeadingZeros64(x) - 11
	if s >= gapCellExps {
		return -1
	}
	return int(c[s][x<<uint(s)>>(52-gapTableBits)&(1<<gapTableBits-1)])
}

// proveGapCells proves every cell of invLog's rate and returns the cells
// with the share of draws the proven ones carry. A cell's share is
// 2^-(s+1)/2⁸.
func proveGapCells(invLog float64) (*gapCells, float64) {
	cells := new(gapCells)
	mass := 0.0
	for s := range cells {
		shift := float64(s+1) * math.Ln2
		share := 1 / float64(uint64(1)<<(s+1+gapTableBits))
		for i := range cells[s] {
			cells[s][i] = -1
			lnHi := math.Ln2 // ln c_256
			if i+1 < len(gapTable) {
				lnHi = gapTable[i+1].ln
			}
			lo := (lnHi - shift + gapMargin) * invLog // invLog < 0 reverses the bracket
			hi := (gapTable[i].ln - shift - gapMargin) * invLog
			// The bound keeps both conversions exact, as maxFastGap does
			// in fastGap. A cell spans at least 2⁻⁹ in ln u, so a proven
			// one needs |invLog| < 2⁹ and has a gap below 2⁹·16·ln 2.
			if hi < math.MaxInt32 {
				if g := int(lo); g == int(hi) {
					cells[s][i] = int32(g)
					mass += share
				}
			}
		}
	}
	return cells, mass
}

// gapCellCache shares each rate's gapCells among its samplers. A table is
// a pure function of the rate, so evicting one (an arbitrary entry per
// overflow) never changes a draw; a nil entry records a rate whose table
// is off.
var (
	gapCellMu    sync.Mutex
	gapCellCache = map[float64]*gapCells{}
)

const gapCellCacheLimit = 16

// sharedGapCells returns p's cached gapCells, proving them on first use:
// nil when the proven cells carry less than minProvenMass of the draws.
func sharedGapCells(p, invLog float64) *gapCells {
	gapCellMu.Lock()
	defer gapCellMu.Unlock()
	if cells, ok := gapCellCache[p]; ok {
		return cells
	}
	cells, mass := proveGapCells(invLog)
	if mass < minProvenMass {
		cells = nil
	}
	if len(gapCellCache) >= gapCellCacheLimit {
		for k := range gapCellCache {
			delete(gapCellCache, k)
			break
		}
	}
	gapCellCache[p] = cells
	return cells
}

func (fs *FlipSampler) advance() {
	if fs.certain {
		fs.next++
		return
	}
	fs.next += 1 + fs.gap()
}
