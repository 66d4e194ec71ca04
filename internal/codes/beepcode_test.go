package codes

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

func TestBlockedBeepCodeShape(t *testing.T) {
	c, err := NewBlockedBeepCode(16, 8, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Length() != 128 || c.Weight() != 16 || c.NumCodewords() != 100 || c.BlockSize() != 8 {
		t.Fatalf("shape: len=%d w=%d m=%d bs=%d", c.Length(), c.Weight(), c.NumCodewords(), c.BlockSize())
	}
	for cw := 0; cw < 100; cw++ {
		s := c.Codeword(cw)
		if s.Ones() != 16 {
			t.Fatalf("codeword %d has weight %d, want 16 (Definition 3 first property)", cw, s.Ones())
		}
		// Exactly one 1 per block.
		for b := 0; b < 16; b++ {
			ones := 0
			for o := 0; o < 8; o++ {
				if s.Get(b*8 + o) {
					ones++
				}
			}
			if ones != 1 {
				t.Fatalf("codeword %d block %d has %d ones", cw, b, ones)
			}
		}
	}
}

func TestBlockedBeepCodeValidation(t *testing.T) {
	tests := []struct{ w, bs, m int }{
		{w: 0, bs: 8, m: 10},
		{w: 4, bs: 1, m: 10},
		{w: 4, bs: 8, m: 0},
	}
	for _, tt := range tests {
		if _, err := NewBlockedBeepCode(tt.w, tt.bs, tt.m, 1); err == nil {
			t.Errorf("NewBlockedBeepCode(%d,%d,%d) did not fail", tt.w, tt.bs, tt.m)
		}
	}
}

func TestBlockedBeepCodeDeterministicAndSeeded(t *testing.T) {
	a, _ := NewBlockedBeepCode(8, 16, 50, 42)
	b, _ := NewBlockedBeepCode(8, 16, 50, 42)
	c, _ := NewBlockedBeepCode(8, 16, 50, 43)
	differs := false
	for cw := 0; cw < 50; cw++ {
		if !a.Codeword(cw).Equal(b.Codeword(cw)) {
			t.Fatal("same seed produced different codewords")
		}
		if !a.Codeword(cw).Equal(c.Codeword(cw)) {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds produced identical codebooks")
	}
}

func TestBlockedBeepCodePositionMatchesCodeword(t *testing.T) {
	c, _ := NewBlockedBeepCode(12, 6, 20, 5)
	for cw := 0; cw < 20; cw++ {
		s := c.Codeword(cw)
		if s.Ones() != c.Weight() {
			t.Fatalf("codeword %d has %d ones, want %d", cw, s.Ones(), c.Weight())
		}
		for i := 0; i < c.Weight(); i++ {
			p := c.Position(cw, i)
			if !s.Get(p) || (i > 0 && p <= c.Position(cw, i-1)) {
				t.Fatalf("Position(%d,%d) = %d is not the codeword's %d-th one", cw, i, p, i)
			}
		}
	}
}

func TestBlockedIntersectionDistribution(t *testing.T) {
	// Pairwise intersections should concentrate near W/BlockSize.
	const w, bs, m = 64, 16, 200
	c, _ := NewBlockedBeepCode(w, bs, m, 9)
	total, pairs := 0, 0
	for a := 0; a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			total += PairwiseIntersection(c, a, b)
			pairs++
		}
	}
	mean := float64(total) / float64(pairs)
	want := float64(w) / float64(bs) // 4
	if mean < want/2 || mean > want*2 {
		t.Errorf("mean pairwise intersection = %v, want ≈%v", mean, want)
	}
}

func TestRandomBeepCodeShape(t *testing.T) {
	r := rng.New(11)
	c, err := NewRandomBeepCode(256, 16, 64, r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Length() != 256 || c.Weight() != 16 || c.NumCodewords() != 64 {
		t.Fatal("shape wrong")
	}
	for cw := 0; cw < 64; cw++ {
		s := c.Codeword(cw)
		if s.Ones() != 16 {
			t.Fatalf("codeword %d weight = %d", cw, s.Ones())
		}
		// Positions strictly increasing (BeepCode contract).
		for i := 1; i < 16; i++ {
			if c.Position(cw, i) <= c.Position(cw, i-1) {
				t.Fatalf("codeword %d positions not increasing", cw)
			}
		}
	}
}

func TestRandomBeepCodeValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewRandomBeepCode(10, 11, 5, r); err == nil {
		t.Error("w > b did not fail")
	}
	if _, err := NewRandomBeepCode(10, 0, 5, r); err == nil {
		t.Error("w = 0 did not fail")
	}
	if _, err := NewRandomBeepCode(10, 2, 0, r); err == nil {
		t.Error("m = 0 did not fail")
	}
}

// TestTheorem4Property verifies Definition 3's second criterion empirically
// for Theorem 4's construction: a superimposition of k random codewords
// rarely d-intersects an outside codeword, for d = 5·(weight)/c as in the
// theorem (weight w = b/(c·k), d = 5b/(c²k) = 5w/c).
func TestTheorem4Property(t *testing.T) {
	const (
		c      = 4                   // the theorem's 1/c density parameter
		k      = 8                   // superimposition size
		a      = 8                   // "message" bits: M = 2^a codewords
		b      = c * c * k * a       // Theorem 4 length
		w      = b / (c * k)         // = c·a = 32
		d      = 5 * b / (c * c * k) // = 5a·... the 5δ²b/k threshold = 5w/c
		trials = 300
	)
	code, err := NewRandomBeepCode(b, w, 1<<a, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := SuperimpositionCheck(code, k, d, trials, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4 promises a 2^{-2a}-fraction of bad subsets for its (large)
	// constants; with these small parameters we just require rarity.
	if bad > 0.05 {
		t.Errorf("bad-superimposition fraction = %v, want <= 0.05", bad)
	}
}

func TestTheorem4PropertyBlockedVariant(t *testing.T) {
	// The blocked construction must enjoy the same decodability property
	// (DESIGN.md substitution #3).
	const (
		k      = 8
		w      = 32
		bs     = 4 * k // density 1/c with c=4
		d      = 5 * w / 4
		trials = 300
	)
	code, err := NewBlockedBeepCode(w, bs, 256, 15)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := SuperimpositionCheck(code, k, d, trials, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0.05 {
		t.Errorf("bad-superimposition fraction = %v, want <= 0.05", bad)
	}
}

func TestSuperimpositionCheckDetectsBadCodes(t *testing.T) {
	// A code where all codewords share their 1-positions is maximally bad:
	// every superimposition d-intersects everything for d <= w.
	c, _ := NewBlockedBeepCode(8, 2, 16, 1)
	// BlockSize 2 gives ~50% pairwise collisions; with k=8 the
	// superimposition covers almost every slot, so d = weight must be hit
	// often. We use d = 5 (out of 8).
	bad, err := SuperimpositionCheck(c, 8, 5, 100, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if bad < 0.9 {
		t.Errorf("dense code reported bad fraction %v, want >= 0.9", bad)
	}
}

func TestSuperimpositionCheckValidation(t *testing.T) {
	c, _ := NewBlockedBeepCode(8, 4, 16, 1)
	if _, err := SuperimpositionCheck(c, 16, 3, 10, rng.New(1)); err == nil {
		t.Error("k = M did not fail")
	}
	if _, err := SuperimpositionCheck(c, 0, 3, 10, rng.New(1)); err == nil {
		t.Error("k = 0 did not fail")
	}
	if _, err := SuperimpositionCheck(c, 4, 3, 0, rng.New(1)); err == nil {
		t.Error("trials = 0 did not fail")
	}
}

func TestPairwiseIntersectionAgainstBitstrings(t *testing.T) {
	r := rng.New(21)
	c, _ := NewRandomBeepCode(128, 16, 32, r)
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			want := c.Codeword(a).AndCountLimit(c.Codeword(b), c.Weight()+1)
			if got := PairwiseIntersection(c, a, b); got != want {
				t.Fatalf("PairwiseIntersection(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPropertyBlockedOffsetsInRange(t *testing.T) {
	f := func(seed uint64, cwRaw, blockRaw uint16) bool {
		c, err := NewBlockedBeepCode(32, 24, 1024, seed)
		if err != nil {
			return false
		}
		cw := int(cwRaw) % 1024
		block := int(blockRaw) % 32
		off := c.Offset(cw, block)
		pos := c.Position(cw, block)
		return off >= 0 && off < 24 && pos == block*24+off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBlockedTablesMatchHashDefinition: the precomputed position table
// and cached masks must agree with the PRG definition (hashOffset)
// for every (codeword, block) pair.
func TestBlockedTablesMatchHashDefinition(t *testing.T) {
	const blockSize, seed = 10, 0xfeed
	c, err := NewBlockedBeepCode(24, blockSize, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	for cw := 0; cw < c.NumCodewords(); cw++ {
		posRow := c.PositionRow(cw)
		mask := c.Mask(cw)
		if mask.Ones() != c.Weight() {
			t.Fatalf("cw %d: mask weight %d, want %d", cw, mask.Ones(), c.Weight())
		}
		for i := 0; i < c.Weight(); i++ {
			off := hashOffset(seed, blockSize, cw, i)
			if c.Offset(cw, i) != off {
				t.Fatalf("cw %d block %d: offset %d, hash %d", cw, i, c.Offset(cw, i), off)
			}
			pos := i*c.BlockSize() + off
			if int(posRow[i]) != pos || c.Position(cw, i) != pos {
				t.Fatalf("cw %d block %d: position table %d, hash %d", cw, i, posRow[i], pos)
			}
			if !mask.Get(pos) {
				t.Fatalf("cw %d block %d: mask misses position %d", cw, i, pos)
			}
		}
	}
}

// TestCodewordIndependentOfMask: Codeword must return an owned copy, not
// the shared cached mask.
func TestCodewordIndependentOfMask(t *testing.T) {
	bc, err := NewBlockedBeepCode(8, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRandomBeepCode(64, 8, 10, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	type codewordCode interface {
		BeepCode
		Codeword(cw int) *bitstring.BitString
	}
	for _, c := range []codewordCode{bc, rc} {
		cw := c.Codeword(3)
		cw.Reset()
		if got := c.Codeword(3).Ones(); got != c.Weight() {
			t.Errorf("%T: mutating Codeword corrupted the cache (weight %d)", c, got)
		}
	}
}

func BenchmarkBlockedPosition(b *testing.B) {
	c, _ := NewBlockedBeepCode(512, 128, 4096, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Position(i%4096, i%512)
	}
}

// BlockSize returns the number of positions per block.
func (c *BlockedBeepCode) BlockSize() int { return c.blockSize }

// Offset returns the within-block offset of codeword cw's 1 in block i.
func (c *BlockedBeepCode) Offset(cw, i int) int {
	return c.Position(cw, i) - i*c.blockSize
}

// hashOffset recomputes the offset of codeword cw's 1 in block i of the
// blocked code with the given seed and block size from the PRG
// definition, bypassing the cached tables: the definitional source the
// table-consistency test checks against.
func hashOffset(seed uint64, blockSize, cw, i int) int {
	return int(rng.Mix(seed, uint64(cw), uint64(i)) % uint64(blockSize))
}

// Codeword materializes codeword cw as an independent copy.
func (c *RandomBeepCode) Codeword(cw int) *bitstring.BitString {
	return c.masks[cw].Clone()
}

// PairwiseIntersection returns 1(C(a) ∧ C(b)) by merging position lists.
func PairwiseIntersection(c BeepCode, a, b int) int {
	count := 0
	i, j := 0, 0
	for i < c.Weight() && j < c.Weight() {
		pa, pb := c.Position(a, i), c.Position(b, j)
		switch {
		case pa == pb:
			count++
			i++
			j++
		case pa < pb:
			i++
		default:
			j++
		}
	}
	return count
}
