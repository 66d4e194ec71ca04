package noise

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// testModels returns one valid instance of every registered model.
func testModels() map[string]Model {
	return map[string]Model{
		NameSymmetric:      Symmetric{Eps: 0.1},
		NameAsymmetric:     Asymmetric{P01: 0.02, P10: 0.2},
		NameErasure + "-0": Erasure{Q: 0.15},
		NameErasure + "-1": Erasure{Q: 0.15, ReadAs1: true},
		NameGilbertElliott: GilbertElliott{PGood: 0.01, PBad: 0.4, PGoodToBad: 0.05, PBadToGood: 0.25},
	}
}

func TestParseRoundTrip(t *testing.T) {
	for label, m := range testModels() {
		spec := m.Spec()
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", label, spec, err)
		}
		if got != m {
			t.Errorf("%s: Parse(%q) = %#v, want %#v", label, spec, got, m)
		}
		if got.Spec() != spec {
			t.Errorf("%s: spec not canonical: %q re-renders as %q", label, spec, got.Spec())
		}
	}
	// Non-canonical spellings parse but canonicalize.
	m, err := Parse("asymmetric:0.020:0.200")
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec() != "asymmetric:0.02:0.2" {
		t.Errorf("canonicalization: got %q", m.Spec())
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	bad := []string{
		"",
		"unknown:0.1",
		"symmetric",     // missing ε
		"symmetric:0.5", // ε at capacity
		"symmetric:-0.1",
		"symmetric:NaN",
		"symmetric:0.1:0.2",                // too many args
		"symmetric:zero",                   // non-numeric
		"asymmetric:0.1",                   // arity
		"asymmetric:0.6:0.1",               // p01 out of range
		"erasure:0.1:2",                    // policy must be 0/1
		"erasure:0.5:0",                    // q at capacity
		"gilbert-elliott:0.1:0.2:0.3",      // arity
		"gilbert-elliott:0.1:0.2:1.5:0.3",  // transition out of range
		"gilbert-elliott:0.4:0.9:0.5:0.05", // stationary rate ≥ ½
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		}
	}
}

// TestParseErrorsCarrySpec pins the diagnosis contract: every parse or
// validation failure names the offending spec and lists the registered
// models, so a bad entry in a multi-axis grid is self-identifying.
func TestParseErrorsCarrySpec(t *testing.T) {
	for _, spec := range []string{
		"unknown:0.1",        // registry miss
		"symmetric",          // parser arity error
		"symmetric:0.5",      // validation error
		"adversary:warp:100", // strategy error
	} {
		_, err := Parse(spec)
		if err == nil {
			t.Fatalf("Parse(%q) accepted an invalid spec", spec)
		}
		msg := err.Error()
		if !strings.Contains(msg, "\""+spec+"\"") {
			t.Errorf("Parse(%q) error omits the offending spec: %v", spec, err)
		}
		if !strings.Contains(msg, "registered: ") || !strings.Contains(msg, NameSymmetric) {
			t.Errorf("Parse(%q) error omits the registered model names: %v", spec, err)
		}
	}
}

func TestNames(t *testing.T) {
	want := []string{NameAdversary, NameAsymmetric, NameErasure, NameGilbertElliott, NameJam, NameSymmetric}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestFlipRates(t *testing.T) {
	cases := []struct {
		m        Model
		p01, p10 float64
	}{
		{Symmetric{Eps: 0.1}, 0.1, 0.1},
		{Asymmetric{P01: 0.02, P10: 0.2}, 0.02, 0.2},
		{Erasure{Q: 0.15}, 0, 0.15},
		{Erasure{Q: 0.15, ReadAs1: true}, 0.15, 0},
		// π_B = 0.05/(0.05+0.25) = 1/6; rate = (5/6)·0.01 + (1/6)·0.4.
		{GilbertElliott{PGood: 0.01, PBad: 0.4, PGoodToBad: 0.05, PBadToGood: 0.25},
			5.0/6*0.01 + 1.0/6*0.4, 5.0/6*0.01 + 1.0/6*0.4},
		// Absorbing Good state: the Bad rate is unreachable.
		{GilbertElliott{PGood: 0, PBad: 0.9, PGoodToBad: 0, PBadToGood: 0.2}, 0, 0},
	}
	for _, c := range cases {
		p01, p10 := c.m.FlipRates()
		if math.Abs(p01-c.p01) > 1e-12 || math.Abs(p10-c.p10) > 1e-12 {
			t.Errorf("%s: FlipRates = (%v, %v), want (%v, %v)", c.m.Spec(), p01, p10, c.p01, c.p10)
		}
	}
	if !Noiseless(GilbertElliott{PBad: 0.9, PBadToGood: 0.2}) {
		t.Error("absorbing-Good chain with pGood=0 should be noiseless")
	}
	if Noiseless(Symmetric{Eps: 0.01}) {
		t.Error("ε > 0 reported noiseless")
	}
	// Noiseless is reachability-based, stricter than FlipRates: a chain
	// that flips in Good but is eventually absorbed into a zero-rate Bad
	// state has stationary rate 0 yet is emphatically not noiseless.
	transient := GilbertElliott{PGood: 0.3, PBad: 0, PGoodToBad: 1e-9, PBadToGood: 0}
	if p01, p10 := transient.FlipRates(); p01 != 0 || p10 != 0 {
		t.Errorf("transient chain stationary rates = (%v, %v), want (0, 0)", p01, p10)
	}
	if Noiseless(transient) {
		t.Error("chain with a noisy transient state reported noiseless")
	}
	if !Noiseless(GilbertElliott{}) {
		t.Error("all-zero chain should be noiseless")
	}
}

// TestSymmetricMatchesFlipSampler pins the symmetric sampler to the raw
// rng.FlipSampler over the historic stream derivation — the byte-identity
// anchor for every pre-existing ε record.
func TestSymmetricMatchesFlipSampler(t *testing.T) {
	const seed, node, eps = 99, 5, 0.13
	s := Symmetric{Eps: eps}.Sampler(seed, node)
	ref := rng.NewFlipSampler(rng.New(seed).Split(0x6e6f697365, uint64(node)), eps)
	const window = 640
	got := make([]uint64, window/64)
	s.ApplyInto(got, 0, window)
	want := make([]uint64, window/64)
	ref.XorFlipsInto(want, 0, window)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: %#x != %#x", i, got[i], want[i])
		}
	}
}

// applyBits runs a sampler's batch path over windowed slots and returns
// the post-noise bits; pre indexes absolute slots.
func applyBits(s Sampler, pre []bool, windows []int) []bool {
	out := append([]bool(nil), pre...)
	start := 0
	for _, w := range windows {
		end := start + w
		words := make([]uint64, (w+63)/64)
		for i := 0; i < w; i++ {
			if pre[start+i] {
				words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		s.ApplyInto(words, start, end)
		for i := 0; i < w; i++ {
			out[start+i] = words[i>>6]>>(uint(i)&63)&1 == 1
		}
		start = end
	}
	return out
}

// TestApplyIntoMatchesFlipAt is the slot-serial equivalence test: for
// every model, ApplyInto over multi-slot windows and one slot at a time
// (flipAt, as beep.Network.Run delivers) produce identical
// post-noise bits over identical pre-noise data.
func TestApplyIntoMatchesFlipAt(t *testing.T) {
	windows := []int{1, 63, 64, 65, 300, 5, 128}
	total := 0
	for _, w := range windows {
		total += w
	}
	for label, m := range testModels() {
		t.Run(label, func(t *testing.T) {
			data := rng.New(777)
			pre := make([]bool, total)
			for i := range pre {
				pre[i] = data.Bool(0.5)
			}
			batch := applyBits(m.Sampler(42, 3), pre, windows)
			scalar := m.Sampler(42, 3)
			for tSlot := 0; tSlot < total; tSlot++ {
				want := pre[tSlot]
				if flipAt(scalar, tSlot, pre[tSlot]) {
					want = !want
				}
				if batch[tSlot] != want {
					t.Fatalf("slot %d: batch bit %v, scalar bit %v (pre %v)",
						tSlot, batch[tSlot], want, pre[tSlot])
				}
			}
		})
	}
}

// TestMarginalRates checks each model's empirical flip rates against
// FlipRates on all-zero and all-one channels.
func TestMarginalRates(t *testing.T) {
	const slots = 200000
	for label, m := range testModels() {
		wantP01, wantP10 := m.FlipRates()
		for _, bit := range []bool{false, true} {
			s := m.Sampler(1234, 9)
			flips := 0
			for tSlot := 0; tSlot < slots; tSlot++ {
				if flipAt(s, tSlot, bit) {
					flips++
				}
			}
			want := wantP01
			if bit {
				want = wantP10
			}
			got := float64(flips) / slots
			tol := 4*math.Sqrt(want*(1-want)/slots) + 0.002
			// Burst noise mixes slowly: give the Markov chain a looser
			// tolerance than the i.i.d. models.
			if strings.HasPrefix(label, NameGilbertElliott) {
				tol += 0.01
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%s (bit=%v): flip rate %v, want ≈%v", label, bit, got, want)
			}
		}
	}
}

// TestGilbertElliottBursts sanity-checks the state machine: a chain that
// always flips in Bad and never in Good produces flips exactly while the
// replayed state sequence is Bad.
func TestGilbertElliottBursts(t *testing.T) {
	m := GilbertElliott{PGood: 0, PBad: 1, PGoodToBad: 0.1, PBadToGood: 0.3}
	s := m.Sampler(5, 2)
	// Replay the chain: identical stream, identical draws.
	r := rng.New(5).Split(0x6e6f697365, uint64(2))
	bad := false
	sawFlip, sawRun := false, 0
	for tSlot := 0; tSlot < 5000; tSlot++ {
		wantFlip := func() bool {
			p, q := 0.0, m.PGoodToBad
			if bad {
				p, q = 1.0, m.PBadToGood
			}
			flip := r.Float64() < p
			if r.Float64() < q {
				bad = !bad
			}
			return flip
		}()
		got := flipAt(s, tSlot, false)
		if got != wantFlip {
			t.Fatalf("slot %d: flip %v, reference chain says %v", tSlot, got, wantFlip)
		}
		if got {
			sawFlip = true
			sawRun++
		} else {
			sawRun = 0
		}
	}
	if !sawFlip {
		t.Fatal("chain never entered the Bad state in 5000 slots")
	}
}

// TestSamplerDeterminism: samplers are pure functions of (model, seed,
// node); distinct nodes get independent streams.
func TestSamplerDeterminism(t *testing.T) {
	for label, m := range testModels() {
		if Noiseless(m) {
			continue
		}
		a := m.Sampler(11, 4)
		b := m.Sampler(11, 4)
		c := m.Sampler(11, 5)
		same, diff := 0, 0
		for tSlot := 0; tSlot < 2000; tSlot++ {
			// Alternate the pre-noise bit so one-sided models (erasure)
			// expose their flip process on both channel values.
			bit := tSlot%2 == 1
			fa, fb, fc := flipAt(a, tSlot, bit), flipAt(b, tSlot, bit), flipAt(c, tSlot, bit)
			if fa != fb {
				t.Fatalf("%s: equal (seed, node) samplers diverged at slot %d", label, tSlot)
			}
			if fa == fc {
				same++
			} else {
				diff++
			}
		}
		if diff == 0 && same > 0 {
			// Rates are low, so agreement is common; but some divergence
			// must appear across 2000 slots for every test model.
			t.Errorf("%s: node 4 and node 5 streams look identical", label)
		}
	}
}
