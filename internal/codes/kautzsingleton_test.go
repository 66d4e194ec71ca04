package codes

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

func TestPrimeHelpers(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 101}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, c := range []int{-1, 0, 1, 4, 9, 100} {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
	tests := []struct{ in, want int }{
		{in: 0, want: 2},
		{in: 2, want: 2},
		{in: 4, want: 5},
		{in: 14, want: 17},
		{in: 90, want: 97},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.in); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestKautzSingletonShape(t *testing.T) {
	c, err := NewKautzSingleton(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Length() != 49 || c.Weight() != 7 || c.NumCodewords() != 49 {
		t.Fatalf("shape: len=%d w=%d m=%d", c.Length(), c.Weight(), c.NumCodewords())
	}
	for cw := 0; cw < c.NumCodewords(); cw++ {
		s := c.Codeword(cw)
		if s.Ones() != 7 {
			t.Fatalf("codeword %d weight = %d", cw, s.Ones())
		}
		// One position per block.
		for b := 0; b < 7; b++ {
			p := c.Position(cw, b)
			if p < b*7 || p >= (b+1)*7 {
				t.Fatalf("codeword %d position %d outside block %d", cw, p, b)
			}
		}
	}
}

func TestKautzSingletonValidation(t *testing.T) {
	if _, err := NewKautzSingleton(6, 2); err == nil {
		t.Error("composite q did not fail")
	}
	if _, err := NewKautzSingleton(7, 0); err == nil {
		t.Error("deg=0 did not fail")
	}
	if _, err := NewKautzSingleton(251, 5); err == nil {
		t.Error("oversized codebook did not fail")
	}
}

func TestKautzSingletonIntersectionBound(t *testing.T) {
	// Reed–Solomon guarantee: distinct degree-<2 polynomials agree on at
	// most 1 point, so codewords intersect in <= 1 position. Exhaustive.
	c, _ := NewKautzSingleton(7, 2)
	for a := 0; a < c.NumCodewords(); a++ {
		for b := a + 1; b < c.NumCodewords(); b++ {
			if got := PairwiseIntersection(c, a, b); got > 1 {
				t.Fatalf("codewords %d,%d intersect in %d positions, want <= 1", a, b, got)
			}
		}
	}
}

func TestKautzSingletonCoverFree(t *testing.T) {
	c, _ := NewKautzSingleton(11, 2)
	k := c.CoverFreeK() // (11-1)/1 = 10
	if k != 10 {
		t.Fatalf("CoverFreeK = %d, want 10", k)
	}
	// With k codewords covering <= k positions of an outside codeword of
	// weight 11, superimpositions of size k never fully cover: check that
	// the weight-many-intersection never happens over samples.
	bad, err := SuperimpositionCheck(c, k, c.Weight(), 50, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("cover-free violated: bad fraction %v", bad)
	}
}

func TestKautzSingletonDeg1Disjoint(t *testing.T) {
	c, _ := NewKautzSingleton(5, 1)
	// Degree-0 polynomials are constants: codewords are pairwise disjoint.
	for a := 0; a < c.NumCodewords(); a++ {
		for b := a + 1; b < c.NumCodewords(); b++ {
			if PairwiseIntersection(c, a, b) != 0 {
				t.Fatalf("constant codewords %d,%d intersect", a, b)
			}
		}
	}
	if c.CoverFreeK() != c.NumCodewords()-1 {
		t.Errorf("deg-1 CoverFreeK = %d", c.CoverFreeK())
	}
}

func TestKSParamsFor(t *testing.T) {
	q, deg, err := KSParamsFor(1<<16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPrime(q) {
		t.Fatalf("q = %d not prime", q)
	}
	if pow(q, deg) < 1<<16 {
		t.Errorf("q^deg = %d < 2^16", pow(q, deg))
	}
	if deg > 1 && (q-1)/(deg-1) < 8 {
		t.Errorf("cover-free bound (q-1)/(deg-1) = %d < 8", (q-1)/(deg-1))
	}
	if _, _, err := KSParamsFor(1, 1); err == nil {
		t.Error("invalid args did not fail")
	}
}

func TestKautzSingletonDecodeSuperimposition(t *testing.T) {
	c, err := NewKautzSingleton(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	k := c.CoverFreeK()
	for trial := 0; trial < 30; trial++ {
		size := 1 + r.Intn(k)
		subset := r.SampleDistinct(c.NumCodewords(), size)
		sup := bitstring.New(c.Length())
		for _, cw := range subset {
			sup.OrInPlace(c.Codeword(cw))
		}
		got := c.DecodeSuperimposition(sup)
		if len(got) != size {
			t.Fatalf("trial %d: decoded %d codewords from a size-%d superimposition", trial, len(got), size)
		}
		want := append([]int(nil), subset...)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: decoded %v, want %v", trial, got, want)
			}
		}
	}
}

func TestKautzSingletonDecodeBeyondCoverFreeMayOverreport(t *testing.T) {
	// Past the cover-free bound the decoder must still return a superset
	// of the transmitted codewords (it can never miss one).
	c, _ := NewKautzSingleton(5, 2)
	r := rng.New(7)
	subset := r.SampleDistinct(c.NumCodewords(), c.CoverFreeK()*3)
	sup := bitstring.New(c.Length())
	inSet := make(map[int]bool)
	for _, cw := range subset {
		sup.OrInPlace(c.Codeword(cw))
		inSet[cw] = true
	}
	got := c.DecodeSuperimposition(sup)
	found := make(map[int]bool, len(got))
	for _, cw := range got {
		found[cw] = true
	}
	for cw := range inSet {
		if !found[cw] {
			t.Fatalf("decoder missed transmitted codeword %d", cw)
		}
	}
}

// KautzSingleton is the classic superimposed code of Kautz & Singleton
// (1964), built from Reed–Solomon codewords mapped to one-hot blocks: a
// codeword is a polynomial p of degree < Deg over F_Q, and block i of the
// binary codeword is the one-hot encoding of p(i) in [Q]. Length is Q², the
// codebook has Q^Deg codewords, every codeword has weight Q, and two
// distinct codewords intersect in at most Deg−1 positions, so the code is
// k-cover-free for k ≤ (Q−Deg)/(Deg−1) … in particular for
// k < (Q−1)/(Deg−1).
//
// The paper's §1.4 uses this construction to show why classic superimposed
// codes give Θ(Δ² log n) phase lengths and hence no improvement.
// Experiment T1 needs only the length q² that KSParamsFor sizes; the code
// itself lives here, where the tests check the cover-free property that
// sizing relies on.
type KautzSingleton struct {
	q   int
	deg int
	m   int
}

// NewKautzSingleton builds the code with field size q (must be prime) and
// polynomial degree bound deg >= 1. The codebook size q^deg is capped at
// 2^26 to keep experiments bounded.
func NewKautzSingleton(q, deg int) (*KautzSingleton, error) {
	if !IsPrime(q) {
		return nil, fmt.Errorf("codes: Kautz–Singleton field size %d is not prime", q)
	}
	if deg < 1 {
		return nil, fmt.Errorf("codes: Kautz–Singleton degree bound %d < 1", deg)
	}
	m := 1
	for i := 0; i < deg; i++ {
		if m > (1<<26)/q {
			return nil, fmt.Errorf("codes: Kautz–Singleton codebook q^deg = %d^%d too large", q, deg)
		}
		m *= q
	}
	return &KautzSingleton{q: q, deg: deg, m: m}, nil
}

// Length returns Q².
func (c *KautzSingleton) Length() int { return c.q * c.q }

// Weight returns Q (one position per block).
func (c *KautzSingleton) Weight() int { return c.q }

// NumCodewords returns Q^Deg.
func (c *KautzSingleton) NumCodewords() int { return c.m }

// Q returns the field size.
func (c *KautzSingleton) Q() int { return c.q }

// CoverFreeK returns the largest k for which the code is guaranteed
// k-cover-free: k distinct codewords can cover at most k·(Deg−1) of another
// codeword's Q positions, so decodability holds while k·(Deg−1) < Q.
func (c *KautzSingleton) CoverFreeK() int {
	if c.deg == 1 {
		return c.m - 1 // disjoint codewords: any union of others misses all Q positions
	}
	return (c.q - 1) / (c.deg - 1)
}

// Position returns the absolute position of codeword cw's 1 in block i:
// i·Q + p_cw(i) where p_cw is cw's polynomial (base-Q digits of cw as
// coefficients).
func (c *KautzSingleton) Position(cw, i int) int {
	return i*c.q + c.eval(cw, i)
}

// Codeword materializes codeword cw.
func (c *KautzSingleton) Codeword(cw int) *bitstring.BitString {
	s := bitstring.New(c.Length())
	for i := 0; i < c.q; i++ {
		s.Set(c.Position(cw, i))
	}
	return s
}

// eval evaluates cw's polynomial at point x via Horner's rule; the base-Q
// digits of cw are the coefficients, most significant first.
func (c *KautzSingleton) eval(cw, x int) int {
	coeffs := make([]int, c.deg)
	for i := 0; i < c.deg; i++ {
		coeffs[i] = cw % c.q
		cw /= c.q
	}
	v := 0
	for i := c.deg - 1; i >= 0; i-- {
		v = (v*x + coeffs[i]) % c.q
	}
	return v
}

var _ BeepCode = (*KautzSingleton)(nil)

// DecodeSuperimposition returns every codeword whose Q positions are all
// covered by sup. The k-cover-free property makes this exact for
// superimpositions of at most CoverFreeK codewords: any outside codeword
// has at least one uncovered position. This is the classic group-testing
// decoder the paper's beep codes relax (they tolerate a vanishing fraction
// of failures in exchange for Θ(k/ log)-factor shorter length).
func (c *KautzSingleton) DecodeSuperimposition(sup *bitstring.BitString) []int {
	var out []int
	for cw := 0; cw < c.m; cw++ {
		covered := true
		for i := 0; i < c.q; i++ {
			if !sup.Get(c.Position(cw, i)) {
				covered = false
				break
			}
		}
		if covered {
			out = append(out, cw)
		}
	}
	return out
}
