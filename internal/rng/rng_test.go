package rng

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// Next returns the next flip position, or (0, false) once positions reach
// or exceed limit. Successive calls enumerate positions in increasing
// order; the sampler then continues past limit on later calls with a larger
// limit. It is the scalar reference XorFlipsInto is pinned against.
func (fs *FlipSampler) Next(limit int) (int, bool) {
	if fs.next >= limit {
		return 0, false
	}
	pos := fs.next
	fs.advance()
	return pos, true
}

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero-seeded stream looks degenerate")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	aAgain := New(7).Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		va, vb := a.Uint64(), b.Uint64()
		if va == vb {
			same++
		}
		if va != aAgain.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	if same > 2 {
		t.Errorf("split streams matched %d/100 outputs", same)
	}
}

func TestSplitMultiKey(t *testing.T) {
	root := New(7)
	if root.Split(1, 2).Uint64() == root.Split(2, 1).Uint64() {
		t.Error("Split(1,2) and Split(2,1) produced identical first outputs")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn(%d): value %d seen %d times, want ≈%.0f", n, v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(9)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / trials; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", rate)
	}
}

func TestPerm(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(19)
	tests := []struct{ n, k int }{
		{n: 10, k: 0},
		{n: 10, k: 1},
		{n: 10, k: 5},
		{n: 10, k: 10},
		{n: 1000, k: 64},
	}
	for _, tt := range tests {
		got := r.SampleDistinct(tt.n, tt.k)
		if len(got) != tt.k {
			t.Fatalf("SampleDistinct(%d,%d) returned %d values", tt.n, tt.k, len(got))
		}
		seen := make(map[int]bool, tt.k)
		for _, v := range got {
			if v < 0 || v >= tt.n {
				t.Fatalf("SampleDistinct(%d,%d): value %d out of range", tt.n, tt.k, v)
			}
			if seen[v] {
				t.Fatalf("SampleDistinct(%d,%d): duplicate %d", tt.n, tt.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleDistinct(2,3) did not panic")
		}
	}()
	New(1).SampleDistinct(2, 3)
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element of [0,6) should appear in a 3-subset w.p. 1/2.
	r := New(23)
	counts := make([]int, 6)
	const trials = 60000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleDistinct(6, 3) {
			counts[v]++
		}
	}
	for v, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.5) > 0.01 {
			t.Errorf("element %d appears with rate %v, want ≈0.5", v, rate)
		}
	}
}

func TestFlipSamplerRate(t *testing.T) {
	tests := []float64{0.01, 0.05, 0.1, 0.25, 0.49}
	const limit = 200000
	for _, p := range tests {
		fs := NewFlipSampler(New(uint64(p*1000)), p)
		flips := 0
		last := -1
		for {
			pos, ok := fs.Next(limit)
			if !ok {
				break
			}
			if pos <= last {
				t.Fatalf("p=%v: positions not strictly increasing (%d after %d)", p, pos, last)
			}
			last = pos
			flips++
		}
		rate := float64(flips) / limit
		tol := 4 * math.Sqrt(p*(1-p)/limit)
		if math.Abs(rate-p) > tol+0.001 {
			t.Errorf("p=%v: flip rate %v", p, rate)
		}
	}
}

func TestFlipSamplerEdgeCases(t *testing.T) {
	fs := NewFlipSampler(New(1), 0)
	if _, ok := fs.Next(1 << 30); ok {
		t.Error("p=0 sampler produced a flip")
	}
	fs = NewFlipSampler(New(1), 1)
	for want := 0; want < 5; want++ {
		got, ok := fs.Next(5)
		if !ok || got != want {
			t.Fatalf("p=1 sampler: got (%d,%v), want (%d,true)", got, ok, want)
		}
	}
	if _, ok := fs.Next(5); ok {
		t.Error("p=1 sampler exceeded limit")
	}
}

func TestFlipSamplerResumesAcrossLimits(t *testing.T) {
	fs := NewFlipSampler(New(2), 0.5)
	var first []int
	for {
		pos, ok := fs.Next(100)
		if !ok {
			break
		}
		first = append(first, pos)
	}
	// Continue past the first window: positions must stay increasing and > 99.
	pos, ok := fs.Next(10000)
	if ok && len(first) > 0 && pos <= first[len(first)-1] {
		t.Errorf("sampler went backwards across windows: %d after %v", pos, first[len(first)-1])
	}
}

// TestSplitPositionInsensitive pins the Split contract: a split is a
// pure function of the parent's seed identity, so consuming from the
// parent (before or between splits) never changes any child stream.
func TestSplitPositionInsensitive(t *testing.T) {
	fresh := New(5).Split(9)
	consumed := New(5)
	for i := 0; i < 17; i++ {
		consumed.Uint64()
	}
	child := consumed.Split(9)
	for i := 0; i < 100; i++ {
		if a, b := fresh.Uint64(), child.Uint64(); a != b {
			t.Fatalf("child after parent consumption diverged at step %d: %#x vs %#x", i, a, b)
		}
	}
	// The contract recurses: a consumed child splits like a fresh one.
	grand := New(5).Split(9).Split(3)
	c := New(5).Split(9)
	c.Uint64()
	c.Uint64()
	fromConsumed := c.Split(3)
	for i := 0; i < 100; i++ {
		if a, b := grand.Uint64(), fromConsumed.Uint64(); a != b {
			t.Fatalf("grandchild after child consumption diverged at step %d", i)
		}
	}
}

func TestMixDistinct(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Error("Mix is order-insensitive")
	}
	if Mix(1) == Mix(1, 0) {
		t.Error("Mix ignores trailing zero key")
	}
}

func TestPropertyIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySplitDeterministic(t *testing.T) {
	f := func(seed, k1, k2 uint64) bool {
		a := New(seed).Split(k1, k2)
		b := New(seed).Split(k1, k2)
		return a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkXorFlipsInto is the channel-noise kernel as the beep window
// drives it: one sampler XORs its flips into consecutive 1,024-slot
// windows. ns/flip divides the timed loop by the flips it drew, counted
// afterwards by replaying the same stream through Next.
func BenchmarkXorFlipsInto(b *testing.B) {
	const window = 1024
	for _, eps := range []float64{0.001, 0.01, 0.05, 0.1, 0.3} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			fs := NewFlipSampler(New(1), eps)
			words := make([]uint64, window/64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.XorFlipsInto(words, i*window, (i+1)*window)
			}
			b.StopTimer()
			ref := NewFlipSampler(New(1), eps)
			flips := 0
			for _, ok := ref.Next(b.N * window); ok; _, ok = ref.Next(b.N * window) {
				flips++
			}
			if flips > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flips), "ns/flip")
			}
		})
	}
}

func BenchmarkFlipSampler(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := NewFlipSampler(r, 0.05)
		for {
			if _, ok := fs.Next(100000); !ok {
				break
			}
		}
	}
}

// TestXorFlipsIntoBoundsCheck requires an explicit panic, with a
// recognizable message, when words cannot hold the requested window.
func TestXorFlipsIntoBoundsCheck(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("short words slice did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "XorFlipsInto") {
			t.Fatalf("panic %v does not identify XorFlipsInto", r)
		}
	}()
	fs := NewFlipSampler(New(3), 1) // certain path: every trial flips
	fs.XorFlipsInto(make([]uint64, 1), 0, 65)
}

// FuzzXorFlipsInto fuzzes the batch path against the scalar Next loop:
// for every (seed, rate, window partition) the flipped words and the
// post-call stream positions must agree exactly. Rates cover the special
// paths: p = 0 (never flips), p = 1 (certain), tiny and near-capacity
// geometric rates.
func FuzzXorFlipsInto(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(64), uint16(64), uint16(64))
	f.Add(uint64(99), uint8(1), uint16(1), uint16(63), uint16(300))
	f.Add(uint64(7), uint8(2), uint16(65), uint16(0), uint16(129))
	f.Add(uint64(42), uint8(3), uint16(5), uint16(1000), uint16(64))
	f.Add(uint64(0), uint8(4), uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, rateSel uint8, w1, w2, w3 uint16) {
		rates := []float64{0, 1e-9, 1e-3, 0.05, 0.1, 0.3, 0.5 - 1e-12, 1}
		p := rates[int(rateSel)%len(rates)]
		batch := NewFlipSampler(New(seed), p)
		scalar := NewFlipSampler(New(seed), p)
		start := 0
		for _, w := range []int{int(w1) % 1024, int(w2) % 1024, int(w3) % 1024} {
			end := start + w
			nWords := (w + 63) / 64
			got := make([]uint64, nWords)
			want := make([]uint64, nWords)
			batch.XorFlipsInto(got, start, end)
			for {
				pos, ok := scalar.Next(end)
				if !ok {
					break
				}
				if pos < start {
					continue
				}
				i := pos - start
				want[i>>6] ^= 1 << (uint(i) & 63)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%v window [%d,%d): word %d = %#x, want %#x", p, start, end, i, got[i], want[i])
				}
			}
			if batch.Peek() != scalar.Peek() {
				t.Fatalf("p=%v window [%d,%d): stream positions diverge (%d vs %d)", p, start, end, batch.Peek(), scalar.Peek())
			}
			start = end
		}
	})
}

// TestXorFlipsIntoMatchesScalarLoop pins the batch noise path to the
// scalar Next loop: identical flip positions, identical stream
// consumption, across windows and stale leading positions.
func TestXorFlipsIntoMatchesScalarLoop(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.3, 0.49, 1} {
		a := NewFlipSampler(New(99), p)
		b := NewFlipSampler(New(99), p)
		start := 0
		for _, window := range []int{1, 63, 64, 65, 300, 5} {
			end := start + window
			wantWords := make([]uint64, (window+63)/64)
			for {
				pos, ok := a.Next(end)
				if !ok {
					break
				}
				if pos >= start {
					i := pos - start
					wantWords[i>>6] ^= 1 << (uint(i) & 63)
				}
			}
			gotWords := make([]uint64, (window+63)/64)
			b.XorFlipsInto(gotWords, start, end)
			for i := range wantWords {
				if wantWords[i] != gotWords[i] {
					t.Fatalf("p=%v window [%d,%d): word %d = %#x, want %#x", p, start, end, i, gotWords[i], wantWords[i])
				}
			}
			if a.Peek() != b.Peek() {
				t.Fatalf("p=%v window [%d,%d): stream positions diverge (%d vs %d)", p, start, end, a.Peek(), b.Peek())
			}
			start = end
		}
		// Stale positions: a window starting past fresh samplers' flips
		// must consume (not emit) everything before its start.
		c := NewFlipSampler(New(7), p)
		d := NewFlipSampler(New(7), p)
		words := make([]uint64, 4)
		d.XorFlipsInto(words, 200, 456)
		for {
			pos, ok := c.Next(456)
			if !ok {
				break
			}
			if pos < 200 {
				continue
			}
			i := pos - 200
			words[i>>6] ^= 1 << (uint(i) & 63)
		}
		for i, w := range words {
			if w != 0 {
				t.Fatalf("p=%v: stale-skip window word %d differs by %#x", p, i, w)
			}
		}
		if c.Peek() != d.Peek() {
			t.Fatalf("p=%v: stale-skip window diverged (%d vs %d)", p, c.Peek(), d.Peek())
		}
	}
}

// gapRates are the channel rates the fast gap path is checked at, from
// 10⁻⁴, where it falls back most often, to 0.49, where gaps are a few
// slots long.
var gapRates = []float64{1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.49}

// checkGap fails t when fastGap claims a value exactGap disagrees with,
// and reports whether the fast path answered. It skips t.Helper, whose
// cost would dominate the millions of calls the tests make.
func checkGap(t *testing.T, x uint64, p, invLog float64) bool {
	g, ok := fastGap(x, invLog)
	if ok {
		if want := exactGap(x, invLog); g != want {
			t.Fatalf("p=%v x=%d: fastGap = %d, exactGap = %d", p, x, g, want)
		}
	}
	return ok
}

// TestGapMatchesExact pins the fast gap path to the exact expression on
// random draws, on sweeps of x around every gap boundary (1−p)^k·2⁵³
// with k < 400, and on the smallest and largest draws, where x has
// fewer bits than the table index or u is within 2⁻⁴¹ of 1. Last, it
// picks rates whose gap boundary (1−p)^k falls exactly on a table
// point c·2⁻ᵉ: there t = 0, the bracket is the margin alone, and only
// gapMargin keeps fastGap from deciding a rounding the other way.
func TestGapMatchesExact(t *testing.T) {
	const draws, sweep = 1 << 20, 2000
	for _, p := range gapRates {
		invLog := NewFlipSampler(New(0), p).invLog
		r := New(uint64(p * 1e6))
		for i := 0; i < draws; i++ {
			if x := r.Uint64() >> 11; x != 0 {
				checkGap(t, x, p, invLog)
			}
		}
		for k := 0; k < 400; k++ {
			mid := math.Pow(1-p, float64(k)) * (1 << 53)
			if mid < 1 {
				break
			}
			for d := -sweep; d <= sweep; d++ {
				if x := int64(mid) + int64(d); x >= 1 && x < 1<<53 {
					checkGap(t, uint64(x), p, invLog)
				}
			}
		}
		for x := uint64(1); x < 1<<12; x++ {
			checkGap(t, x, p, invLog)
			checkGap(t, 1<<53-x, p, invLog)
		}
	}
	for i := 0; i < 1<<gapTableBits; i++ {
		for e := 1; e <= 40; e += 3 {
			u := math.Ldexp(1+float64(i)/(1<<gapTableBits), -e)
			x := uint64(math.Ldexp(u, 53))
			for k := 1; k <= 60; k++ {
				p := -math.Expm1(math.Log(u) / float64(k)) // (1−p)^k = u
				if !(p > 0 && p < 0.5) {
					continue
				}
				invLog := NewFlipSampler(New(0), p).invLog
				for d := x - 1; d <= x+1; d++ {
					checkGap(t, d, p, invLog)
				}
			}
		}
	}
}

// TestGapFallbackShare measures how often the fast path defers to the
// exact expression. The bracket is at most |1/ln(1−p)|·(2⁻¹⁷ + 2·10⁻⁹)
// wide in gap units, so the share grows like 1/p and may not exceed
// that width. A bracket without the tangent term, ln(1+t) ∈ [0, t],
// exceeds it at every rate here (80% of draws fall back at 10⁻³).
func TestGapFallbackShare(t *testing.T) {
	const draws = 1 << 18
	for _, p := range gapRates {
		invLog := NewFlipSampler(New(0), p).invLog
		r := New(3)
		fallbacks := 0
		for i := 0; i < draws; i++ {
			if x := r.Uint64() >> 11; x != 0 && !checkGap(t, x, p, invLog) {
				fallbacks++
			}
		}
		share := float64(fallbacks) / draws
		t.Logf("ε = %g: fallback share %.3g%% of %d draws", p, 100*share, draws)
		if bound := -invLog * (1.0/(1<<17) + 2*gapMargin); share > bound {
			t.Errorf("ε = %g: fallback share %.3g exceeds the bracket width %.3g", p, share, bound)
		}
	}
}

// FuzzGapFastPath compares the fast gap path with the exact expression
// for any 53-bit draw x and any rate 0 < p < ½, and so does the proven
// cell x falls in where p's table is on.
func FuzzGapFastPath(f *testing.F) {
	f.Add(uint64(1)<<11, 0.1)              // x = 1, the smallest draw
	f.Add(^uint64(0), 1e-4)                // x = 2⁵³−1, u just below 1
	f.Add(uint64(1)<<63, 0.49)             // x = 2⁵², u = ½
	f.Add(uint64(0x9e3779b97f4a7c15), 0.3) // an arbitrary draw
	f.Add(uint64(12345678901234)<<11, 1e-300)
	f.Fuzz(func(t *testing.T, raw uint64, p float64) {
		if !(p > 0 && p < 0.5) {
			return
		}
		x := raw >> 11
		if x == 0 {
			x = 1
		}
		invLog := NewFlipSampler(New(0), p).invLog
		checkGap(t, x, p, invLog)
		if cells := sharedGapCells(p, invLog); cells != nil {
			if g := cells.at(x); g >= 0 && g != exactGap(x, invLog) {
				t.Fatalf("p=%v x=%d: proven cell gap %d, exactGap %d", p, x, g, exactGap(x, invLog))
			}
		}
	})
}

// TestGapCellsProven checks every proven cell of every rate in gapRates
// against exactGap: at the cell's lowest and highest draw and at 64
// random draws inside it. It also pins the enable rule: the table is on
// where its proven cells carry at least minProvenMass of the draws.
func TestGapCellsProven(t *testing.T) {
	on := map[float64]bool{1e-3: false, 0.01: false, 0.05: true, 0.1: true, 0.3: true}
	r := New(17)
	for _, p := range gapRates {
		invLog := NewFlipSampler(New(0), p).invLog
		cells, mass := proveGapCells(invLog)
		proven := 0
		for s := range cells {
			for i, g := range cells[s] {
				if g < 0 {
					continue
				}
				proven++
				// x<<s runs over [2⁵² + i·2⁴⁴, 2⁵² + (i+1)·2⁴⁴) in the cell.
				lo := uint64(1<<52+i<<44) >> uint(s)
				hi := uint64(1<<52+(i+1)<<44-1) >> uint(s)
				xs := []uint64{lo, hi}
				for range 64 {
					xs = append(xs, lo+r.Uint64()%(hi-lo+1))
				}
				for _, x := range xs {
					if cells.at(x) != int(g) {
						t.Fatalf("p=%v x=%d: lookup misses cell (%d, %d)", p, x, s, i)
					}
					if want := exactGap(x, invLog); int(g) != want {
						t.Fatalf("p=%v cell (%d, %d) x=%d: proven gap %d, exactGap %d", p, s, i, x, g, want)
					}
				}
			}
		}
		enabled := sharedGapCells(p, invLog) != nil
		t.Logf("ε = %g: %d of %d cells proven, carrying %.3f of the draws; table on: %v",
			p, proven, gapCellExps<<gapTableBits, mass, enabled)
		if enabled != (mass >= minProvenMass) {
			t.Errorf("ε = %g: table on = %v with proven mass %.3f", p, enabled, mass)
		}
		if want, ok := on[p]; ok && enabled != want {
			t.Errorf("ε = %g: table on = %v, want %v", p, enabled, want)
		}
	}
}

// TestGapCellsSharedAcrossGoroutines draws windows from samplers of
// several rates on several goroutines at once, each sampler proving or
// sharing its rate's cells on its first window from a cold cache, and
// requires the flips a lone serial sampler of the same stream draws.
func TestGapCellsSharedAcrossGoroutines(t *testing.T) {
	rates := []float64{0.01, 0.05, 0.1, 0.3}
	draw := func(seed uint64, p float64) []uint64 {
		fs := NewFlipSampler(New(seed), p)
		words := make([]uint64, 64)
		for w := 0; w < 8; w++ {
			fs.XorFlipsInto(words, w*4096, (w+1)*4096)
		}
		return words
	}
	want := make([][]uint64, 4*len(rates))
	for i := range want {
		want[i] = draw(uint64(i), rates[i%len(rates)])
	}
	// Empty the cache, so the goroutines race to prove the cells too.
	gapCellMu.Lock()
	clear(gapCellCache)
	gapCellMu.Unlock()
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := draw(uint64(i), rates[i%len(rates)])
			for k := range got {
				if got[k] != want[i][k] {
					t.Errorf("sampler %d (ε = %g): word %d = %#x, want %#x", i, rates[i%len(rates)], k, got[k], want[i][k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMul64MatchesBigProduct checks the 128-bit product Intn's bounded
// rejection uses against math/big on edge values and random pairs.
func TestMul64MatchesBigProduct(t *testing.T) {
	vals := []uint64{0, 1, 2, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<64 - 2, 1<<64 - 1, 0xffffffff00000000, 0xaaaaaaaaaaaaaaaa}
	r := New(5)
	for range 64 {
		vals = append(vals, r.Uint64())
	}
	for _, a := range vals {
		for _, b := range vals {
			hi, lo := bits.Mul64(a, b)
			got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			got.Or(got, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			if got.Cmp(want) != 0 {
				t.Fatalf("%#x·%#x: bits.Mul64 = (%#x, %#x), want %v", a, b, hi, lo, want)
			}
		}
	}
}

// TestFlipSamplerNaNPanics requires a NaN rate to panic instead of
// building a sampler that flips every trial.
func TestFlipSamplerNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlipSampler(NaN) did not panic")
		}
	}()
	NewFlipSampler(New(1), math.NaN())
}
