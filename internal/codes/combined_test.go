package codes

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

func TestCombinedPlacesDistanceBits(t *testing.T) {
	c, _ := NewBlockedBeepCode(8, 4, 16, 3)
	dist := bitstring.New(8)
	dist.Set(0)
	dist.Set(3)
	dist.Set(7)
	cd, err := Combined(c, 5, dist)
	if err != nil {
		t.Fatal(err)
	}
	// CD must have 1s exactly at the 0th, 3rd, 7th one-positions of C(5).
	want := bitstring.New(c.Length())
	want.Set(c.Position(5, 0))
	want.Set(c.Position(5, 3))
	want.Set(c.Position(5, 7))
	if !cd.Equal(want) {
		t.Errorf("Combined = %s, want %s", cd, want)
	}
	// CD(r,m) is always a sub-pattern of C(r) (Notation 7).
	if cd.AndNotCountLimit(c.Codeword(5), 1) != 0 {
		t.Error("combined codeword has a 1 outside C(r)'s support")
	}
}

func TestCombinedLengthMismatch(t *testing.T) {
	c, _ := NewBlockedBeepCode(8, 4, 16, 3)
	if _, err := Combined(c, 0, bitstring.New(7)); err == nil {
		t.Error("mismatched distance length did not fail")
	}
}

func TestExtractSubsequenceInvertsCombined(t *testing.T) {
	// In a noiseless, collision-free channel, extracting y_{v,w} at C(r)'s
	// one-positions recovers D(m) exactly.
	c, _ := NewBlockedBeepCode(24, 8, 64, 4)
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		dist := bitstring.New(24)
		for i := 0; i < 24; i++ {
			if r.Bool(0.5) {
				dist.Set(i)
			}
		}
		cw := r.Intn(64)
		cd, err := Combined(c, cw, dist)
		if err != nil {
			t.Fatal(err)
		}
		if got := ExtractSubsequence(c, cw, cd); !got.Equal(dist) {
			t.Fatalf("trial %d: extract(combined) = %s, want %s", trial, got, dist)
		}
	}
}

func TestRenderCombinedGolden(t *testing.T) {
	// Reproduces Figure 1's layout on a tiny example.
	cr, _ := bitstring.Parse("0110100101")
	dm, _ := bitstring.Parse("10110")
	got, err := RenderCombined(cr, dm)
	if err != nil {
		t.Fatal(err)
	}
	// C(r) has ones at positions 1,2,4,7,9; D(m) = 10110 is written under
	// them in order, so CD has ones at positions 1, 4, and 7.
	want := strings.Join([]string{
		"C(r)     = 0110100101",
		"D(m)     =  10 1  1 0",
		"CD(r,m)  = 0100100100",
		"",
	}, "\n")
	if got != want {
		t.Errorf("RenderCombined:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderCombinedMismatch(t *testing.T) {
	cr, _ := bitstring.Parse("0110")
	dm, _ := bitstring.Parse("101")
	if _, err := RenderCombined(cr, dm); err == nil {
		t.Error("mismatched D(m) length did not fail")
	}
}

// Combined builds CD(r, m) per Notation 7: the distance codeword dist is
// written into the positions where beep codeword cw of code c has a 1, and
// every other position is 0 (Figure 1). dist must have exactly c.Weight()
// bits (the paper guarantees this: beep codewords contain exactly
// c_ε²γ·log n ones, the distance-code length).
func Combined(c BeepCode, cw int, dist *bitstring.BitString) (*bitstring.BitString, error) {
	if dist.Len() != c.Weight() {
		return nil, fmt.Errorf("codes: distance codeword has %d bits, beep code weight is %d",
			dist.Len(), c.Weight())
	}
	out := bitstring.New(c.Length())
	for i := 0; i < c.Weight(); i++ {
		if dist.Get(i) {
			out.Set(c.Position(cw, i))
		}
	}
	return out, nil
}

// ExtractSubsequence reads the paper's y_{v,w}: the bits of a phase-2
// observation obs at the one-positions of beep codeword cw, in order. The
// result has c.Weight() bits.
func ExtractSubsequence(c BeepCode, cw int, obs *bitstring.BitString) *bitstring.BitString {
	out := bitstring.New(c.Weight())
	for i := 0; i < c.Weight(); i++ {
		if obs.Get(c.Position(cw, i)) {
			out.Set(i)
		}
	}
	return out
}
