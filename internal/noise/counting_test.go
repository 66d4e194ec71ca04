package noise

import (
	"math/rand"
	"testing"
)

// tally is the test Accountant.
type tally struct{ n int64 }

func (t *tally) Add(delta int64) { t.n += delta }

// prenoise builds a deterministic pre-noise reception window of w slots
// (bit i of words = slot start+i) from a plain math/rand source — test
// fixture data, independent of internal/rng.
func prenoise(r *rand.Rand, w int) []uint64 {
	words := make([]uint64, (w+63)/64)
	for i := range words {
		words[i] = r.Uint64()
	}
	return words
}

func bitAt(words []uint64, i int) bool { return words[i>>6]&(1<<(uint(i)&63)) != 0 }

// scalarFlips replays the window through a fresh sampler's FlipAt path
// — the scalar reference the package's equivalence tests already pin
// ApplyInto to — and returns how many slots report a flip.
func scalarFlips(m Model, seed uint64, node int, start, end int, pre []uint64) int64 {
	s := m.Sampler(seed, node)
	var flips int64
	for t := start; t < end; t++ {
		if s.FlipAt(t, bitAt(pre, t-start)) {
			flips++
		}
	}
	return flips
}

// TestCountingMatchesScalarReference is the accounting-hook coverage
// from ISSUE 7: for every model, the flip counts reported by the
// Counting wrapper on the batch path must equal the scalar FlipAt
// reference count over the same windows — the FuzzXorFlipsInto-style
// pinning, applied to accounting. It also checks the wrapper changed
// nothing: the perturbed words must equal an unwrapped sampler's.
func TestCountingMatchesScalarReference(t *testing.T) {
	const seed, node = 2023, 5
	for label, m := range testModels() {
		r := rand.New(rand.NewSource(int64(len(label)) * 77))
		var acc tally
		wrapped := Counting(m.Sampler(seed, node), &acc)
		plain := m.Sampler(seed, node)
		var wantTotal int64
		start := 0
		// Contiguous windows, like successive phases; widths cover
		// partial words, exact words, and multi-word spans.
		for _, w := range []int{5, 64, 63, 129, 300, 1} {
			end := start + w
			pre := prenoise(r, w)
			got := append([]uint64(nil), pre...)
			want := append([]uint64(nil), pre...)
			wrapped.ApplyInto(got, start, end)
			plain.ApplyInto(want, start, end)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s window [%d,%d): counting wrapper changed receptions: word %d = %#x, want %#x",
						label, start, end, i, got[i], want[i])
				}
			}
			wantTotal += scalarFlips(m, seed, node, start, end, pre)
			start = end
		}
		if acc.n != wantTotal {
			t.Fatalf("%s: counted %d flips, scalar reference says %d", label, acc.n, wantTotal)
		}
	}
}

// TestCountingFlipAtPath pins the scalar path of the wrapper itself:
// counted flips are exactly the FlipAt-true returns, and return values
// pass through untouched.
func TestCountingFlipAtPath(t *testing.T) {
	const seed, node = 7, 3
	for label, m := range testModels() {
		var acc tally
		wrapped := Counting(m.Sampler(seed, node), &acc)
		plain := m.Sampler(seed, node)
		r := rand.New(rand.NewSource(99))
		var want int64
		for t2 := 0; t2 < 700; t2++ {
			bit := r.Intn(2) == 1
			got := wrapped.FlipAt(t2, bit)
			ref := plain.FlipAt(t2, bit)
			if got != ref {
				t.Fatalf("%s: FlipAt(%d) = %v through wrapper, want %v", label, t2, got, ref)
			}
			if ref {
				want++
			}
		}
		if acc.n != want {
			t.Fatalf("%s: counted %d flips on the scalar path, want %d", label, acc.n, want)
		}
	}
}

// TestCountingNilPassthrough: nil accountant or sampler must wrap to
// the input unchanged, so call sites wrap unconditionally.
func TestCountingNilPassthrough(t *testing.T) {
	s := Symmetric{Eps: 0.1}.Sampler(1, 0)
	if Counting(s, nil) != s {
		t.Fatal("nil accountant must return the sampler unwrapped")
	}
	if Counting(nil, &tally{}) != nil {
		t.Fatal("nil sampler must stay nil")
	}
}
