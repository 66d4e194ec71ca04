// Package codes implements the binary codes of the paper's §2: beep codes
// (Definition 3, the novel superimposed codes built by Theorem 4), distance
// codes (Definition 5 / Lemma 6), a text rendering of the combined code
// CD(r,m) of Notation 7 (Figure 1), and the parameters of the classic
// Kautz–Singleton superimposed code that the paper's §1.4 argues is too
// long for this application.
//
// Two beep-code families are provided:
//
//   - RandomBeepCode follows Theorem 4's construction exactly: each
//     codeword is uniform among weight-W strings of length B. It is used to
//     verify the Definition 3 superimposition property empirically.
//   - BlockedBeepCode places exactly one 1 per length-BlockSize block, at a
//     PRG-derived offset. It has the same weight, the same expected pairwise
//     intersections (Binomial(W, 1/BlockSize)), and O(1) position lookup
//     with O(1) memory, which lets simulator nodes work position-wise
//     without materializing b-bit strings. It is the pipeline default
//     (substitution #3 in DESIGN.md).
package codes

import (
	"fmt"
	"sort"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

// BeepCode is a superimposed code with M constant-weight codewords. For
// every implementation in this package, Position(cw, i) is strictly
// increasing in i, so codewords can be traversed position-wise.
type BeepCode interface {
	// Length returns b, the codeword length in bits (beep rounds).
	Length() int
	// Weight returns W, the number of 1s in every codeword.
	Weight() int
	// NumCodewords returns M, the size of the codebook.
	NumCodewords() int
	// Position returns the absolute position of the i-th 1 (0 <= i < W)
	// of codeword cw (0 <= cw < M).
	Position(cw, i int) int
}

// BlockedBeepCode is the O(1)-lookup beep code: length W·BlockSize, one 1
// per block, offsets derived from a public seed. Two distinct codewords
// collide in each block independently with probability 1/BlockSize.
//
// The PRG hash behind the offsets is paid once, at construction: the code
// carries a flat per-codeword position table and cached codeword masks
// (Mask). These read-only tables are what make the §4
// decoder's hot path word-parallel and hash-free.
type BlockedBeepCode struct {
	weight    int
	blockSize int
	m         int

	positions []int32                // flat m×weight: Position(cw, i) = positions[cw*weight+i]
	masks     []*bitstring.BitString // cached codewords, shared read-only
}

// NewBlockedBeepCode constructs a blocked beep code with the given weight
// (number of blocks), block size, codebook size m, and public seed.
func NewBlockedBeepCode(weight, blockSize, m int, seed uint64) (*BlockedBeepCode, error) {
	if weight <= 0 || blockSize <= 1 || m <= 0 {
		return nil, fmt.Errorf("codes: invalid blocked beep code (weight=%d blockSize=%d m=%d)",
			weight, blockSize, m)
	}
	c := &BlockedBeepCode{weight: weight, blockSize: blockSize, m: m}
	c.positions = make([]int32, m*weight)
	c.masks = make([]*bitstring.BitString, m)
	length := c.Length()
	for cw := 0; cw < m; cw++ {
		mask := bitstring.New(length)
		row := cw * weight
		for i := 0; i < weight; i++ {
			off := int32(rng.Mix(seed, uint64(cw), uint64(i)) % uint64(blockSize))
			pos := int32(i*blockSize) + off
			c.positions[row+i] = pos
			mask.Set(int(pos))
		}
		c.masks[cw] = mask
	}
	return c, nil
}

// Length returns b = W·BlockSize.
func (c *BlockedBeepCode) Length() int { return c.weight * c.blockSize }

// Weight returns W.
func (c *BlockedBeepCode) Weight() int { return c.weight }

// NumCodewords returns M.
func (c *BlockedBeepCode) NumCodewords() int { return c.m }

// Position returns the absolute position of codeword cw's 1 in block i.
func (c *BlockedBeepCode) Position(cw, i int) int {
	return int(c.positions[cw*c.weight+i])
}

// PositionRow returns codeword cw's W positions as a shared read-only
// slice into the code's flat position table.
func (c *BlockedBeepCode) PositionRow(cw int) []int32 {
	return c.positions[cw*c.weight : (cw+1)*c.weight : (cw+1)*c.weight]
}

// Mask returns codeword cw as a cached bitstring, shared and read-only:
// callers must not mutate it. Use Codeword for an owned copy.
func (c *BlockedBeepCode) Mask(cw int) *bitstring.BitString {
	return c.masks[cw]
}

// Codeword materializes codeword cw as an independent copy.
func (c *BlockedBeepCode) Codeword(cw int) *bitstring.BitString {
	return c.masks[cw].Clone()
}

var _ BeepCode = (*BlockedBeepCode)(nil)

// RandomBeepCode is Theorem 4's construction: M codewords drawn uniformly
// among weight-W strings of length B, materialized as a flat sorted
// position table plus cached codeword masks.
type RandomBeepCode struct {
	length    int
	weight    int
	m         int
	positions []int32                // flat m×weight, sorted within each row
	masks     []*bitstring.BitString // cached codewords, shared read-only
}

// NewRandomBeepCode draws an M-codeword code of length b and weight w from
// stream r.
func NewRandomBeepCode(b, w, m int, r *rng.Stream) (*RandomBeepCode, error) {
	if w <= 0 || b < w || m <= 0 {
		return nil, fmt.Errorf("codes: invalid random beep code (b=%d w=%d m=%d)", b, w, m)
	}
	c := &RandomBeepCode{
		length:    b,
		weight:    w,
		m:         m,
		positions: make([]int32, m*w),
		masks:     make([]*bitstring.BitString, m),
	}
	for cw := 0; cw < m; cw++ {
		sample := r.SampleDistinct(b, w)
		sort.Ints(sample)
		mask := bitstring.New(b)
		for i, p := range sample {
			c.positions[cw*w+i] = int32(p)
			mask.Set(p)
		}
		c.masks[cw] = mask
	}
	return c, nil
}

// Length returns b.
func (c *RandomBeepCode) Length() int { return c.length }

// Weight returns W.
func (c *RandomBeepCode) Weight() int { return c.weight }

// NumCodewords returns M.
func (c *RandomBeepCode) NumCodewords() int { return c.m }

// Position returns the position of the i-th 1 of codeword cw.
func (c *RandomBeepCode) Position(cw, i int) int { return int(c.positions[cw*c.weight+i]) }

// Mask returns codeword cw as a cached bitstring, shared and read-only.
func (c *RandomBeepCode) Mask(cw int) *bitstring.BitString { return c.masks[cw] }

var _ BeepCode = (*RandomBeepCode)(nil)

// SuperimpositionCheck reports how often a random size-k superimposition
// of codewords d-intersects some codeword outside the set — the quantity
// Definition 3 bounds. For each of trials rounds it samples a size-k subset
// S of the codebook, superimposes it, and counts it bad if any codeword
// outside S d-intersects ∨(S). It returns the fraction of bad subsets.
//
// Checking against all M−k outside codewords is exponential in the paper
// (2^a codewords); here M is explicit so the check is exact per subset.
func SuperimpositionCheck(c BeepCode, k, d, trials int, r *rng.Stream) (badFraction float64, err error) {
	m := c.NumCodewords()
	if k <= 0 || k >= m {
		return 0, fmt.Errorf("codes: superimposition check needs 0 < k < M, got k=%d M=%d", k, m)
	}
	if trials <= 0 {
		return 0, fmt.Errorf("codes: trials must be positive")
	}
	// Both code families cache their codewords as read-only masks, so the
	// superimposition is a word-parallel OR and the d-intersection test a
	// popcount sweep with early exit at d.
	type masker interface {
		Mask(cw int) *bitstring.BitString
	}
	mk, hasMasks := c.(masker)
	bad := 0
	for t := 0; t < trials; t++ {
		subset := r.SampleDistinct(m, k)
		inSet := make(map[int]bool, k)
		sup := bitstring.New(c.Length())
		for _, cw := range subset {
			inSet[cw] = true
			if hasMasks {
				sup.OrInPlace(mk.Mask(cw))
				continue
			}
			for i := 0; i < c.Weight(); i++ {
				sup.Set(c.Position(cw, i))
			}
		}
		for cw := 0; cw < m; cw++ {
			if inSet[cw] {
				continue
			}
			count := 0
			if hasMasks {
				count = mk.Mask(cw).AndCountLimit(sup, d)
			} else {
				for i := 0; i < c.Weight(); i++ {
					if sup.Get(c.Position(cw, i)) {
						count++
						if count >= d {
							break
						}
					}
				}
			}
			if count >= d {
				bad++
				break
			}
		}
	}
	return float64(bad) / float64(trials), nil
}
