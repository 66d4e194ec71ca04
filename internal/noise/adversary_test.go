package noise

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// hostileModels returns one valid instance of every hostile model under
// every strategy. They are kept out of testModels deliberately: the
// stochastic-suite assumptions (real marginal rates, per-node stream
// divergence) don't hold for budgeted or deterministic channels.
func hostileModels() map[string]Model {
	return map[string]Model{
		"adversary-random": Adversary{Strategy: StrategyRandom, Budget: 40, A: 0.3},
		"adversary-solo":   Adversary{Strategy: StrategySolo, Budget: 40},
		"adversary-phase":  Adversary{Strategy: StrategyPhase, Budget: 40, A: 32, B: 5},
		"adversary-hub":    Adversary{Strategy: StrategyHub, Budget: 40, A: 0.5},
		"jam":              Jam{Duty: 3, Period: 10},
	}
}

func TestHostileParseRoundTrip(t *testing.T) {
	for label, m := range hostileModels() {
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
	// Defaults fill in and render canonically.
	for spec, want := range map[string]string{
		"adversary:random:100":    "adversary:random:100:0.5",
		"adversary:hub:100":       "adversary:hub:100:0.5",
		"adversary:phase:100":     "adversary:phase:100:64:8",
		"adversary:phase:100:16":  "adversary:phase:100:16:8",
		"adversary:solo:0":        "adversary:solo:0",
		"adversary:random:7:0.25": "adversary:random:7:0.25",
	} {
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if m.Spec() != want {
			t.Errorf("Parse(%q).Spec() = %q, want %q", spec, m.Spec(), want)
		}
	}
}

func TestHostileParseRejectsInvalid(t *testing.T) {
	bad := []string{
		"adversary",                // no strategy/budget
		"adversary:solo",           // no budget
		"adversary:warp:10",        // unknown strategy
		"adversary:solo:ten",       // non-integer budget
		"adversary:solo:1.5",       // non-integer budget
		"adversary:solo:-1",        // negative budget
		"adversary:solo:10:0.5",    // solo takes no args
		"adversary:random:10:0",    // p outside (0, 1]
		"adversary:random:10:1.1",  // p outside (0, 1]
		"adversary:hub:10:-0.1",    // frac outside [0, 1]
		"adversary:hub:10:2",       // frac outside [0, 1]
		"adversary:phase:10:0:0",   // period < 1
		"adversary:phase:10:8:9",   // width > period
		"adversary:phase:10:8.5:2", // non-integer period
		"jam:1",                    // arity
		"jam:1:0",                  // period < 1
		"jam:-1:10",                // duty < 0
		"jam:11:10",                // duty > period
		"jam:5:10",                 // duty fraction at capacity
		"jam:1.5:10",               // non-integer duty
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		}
	}
	// Hand-built models with unused parameters set must fail validation:
	// they would collide with the canonical model under one spec.
	for _, m := range []Model{
		Adversary{Strategy: StrategySolo, Budget: 5, A: 1},
		Adversary{Strategy: StrategyRandom, Budget: 5, A: 0.5, B: 1},
		Adversary{Strategy: StrategyHub, Budget: 5, A: 0.5, B: 1},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%#v validated despite unused parameters", m)
		}
	}
}

func TestHostileCalibration(t *testing.T) {
	adv := Adversary{Strategy: StrategySolo, Budget: 100}
	jam := Jam{Duty: 1, Period: 10}
	for _, m := range []Model{adv, jam} {
		if !Hostile(m) {
			t.Errorf("%s not Hostile", m.Spec())
		}
	}
	if Hostile(Symmetric{Eps: 0.1}) {
		t.Error("symmetric reported Hostile")
	}
	if got := CalibrationRate(adv); got != AdversaryCalibRate {
		t.Errorf("adversary CalibrationRate = %v, want %v", got, AdversaryCalibRate)
	}
	if got := CalibrationRate(jam); got != 0.1 {
		t.Errorf("jam CalibrationRate = %v, want 0.1", got)
	}
	if got := CalibrationRate(Asymmetric{P01: 0.02, P10: 0.2}); got != 0.2 {
		t.Errorf("stochastic CalibrationRate = %v, want max marginal 0.2", got)
	}
	if p01, p10 := adv.FlipRates(); p01 != 0 || p10 != 0 {
		t.Errorf("adversary FlipRates = (%v, %v), want (0, 0)", p01, p10)
	}
	if !Noiseless(Adversary{Strategy: StrategySolo, Budget: 0}) {
		t.Error("zero-budget adversary should be noiseless")
	}
	if Noiseless(adv) {
		t.Error("budgeted adversary reported noiseless")
	}
	if !Noiseless(Jam{Duty: 0, Period: 4}) {
		t.Error("zero-duty jam should be noiseless")
	}
}

// TestHostileThreePathConformance is the hostile-model edition of
// TestApplyIntoMatchesFlipAt: per strategy, the scalar FlipAt path, the
// batch ApplyInto path, and one sampler alternating the two window by
// window produce identical post-noise bits — and identical budget
// spend — over identical pre-noise data and windows.
func TestHostileThreePathConformance(t *testing.T) {
	windows := []int{1, 63, 64, 65, 300, 5, 128}
	total := 0
	for _, w := range windows {
		total += w
	}
	for label, m := range hostileModels() {
		t.Run(label, func(t *testing.T) {
			data := rng.New(777)
			pre := make([]bool, total)
			for i := range pre {
				pre[i] = data.Bool(0.5)
			}
			batch := applyBits(m.Sampler(42, 3), pre, windows)
			// Scalar reference.
			scalar := m.Sampler(42, 3)
			for tSlot := 0; tSlot < total; tSlot++ {
				want := pre[tSlot]
				if scalar.FlipAt(tSlot, pre[tSlot]) {
					want = !want
				}
				if batch[tSlot] != want {
					t.Fatalf("slot %d: batch bit %v, scalar bit %v (pre %v)",
						tSlot, batch[tSlot], want, pre[tSlot])
				}
			}
			// Interleaved: one sampler takes even windows slot by slot and
			// odd windows as a batch; the paths are interchangeable mid-run.
			mixed := m.Sampler(42, 3)
			off := 0
			for wi, w := range windows {
				got := make([]bool, w)
				if wi%2 == 0 {
					for i := range got {
						got[i] = pre[off+i] != mixed.FlipAt(off+i, pre[off+i])
					}
				} else {
					words := make([]uint64, (w+63)/64)
					for i := 0; i < w; i++ {
						if pre[off+i] {
							words[i>>6] |= 1 << (uint(i) & 63)
						}
					}
					mixed.ApplyInto(words, off, off+w)
					for i := range got {
						got[i] = words[i>>6]>>(uint(i)&63)&1 == 1
					}
				}
				for i, bit := range got {
					if bit != batch[off+i] {
						t.Fatalf("window %d slot %d: interleaved bit %v, batch bit %v", wi, off+i, bit, batch[off+i])
					}
				}
				off += w
			}
		})
	}
}

// countFlips runs a sampler over pre-noise data and counts applied
// flips, alternating the scalar and batch paths window by window.
func countFlips(t *testing.T, m Model, seed uint64, node, slots int, preBit func(int) bool) int {
	t.Helper()
	s := m.Sampler(seed, node)
	flips := 0
	tSlot := 0
	mode := 0
	for tSlot < slots {
		w := 64
		if slots-tSlot < w {
			w = slots - tSlot
		}
		switch mode % 2 {
		case 0: // scalar
			for i := 0; i < w; i++ {
				if s.FlipAt(tSlot+i, preBit(tSlot+i)) {
					flips++
				}
			}
		case 1: // batch
			words := make([]uint64, (w+63)/64)
			for i := 0; i < w; i++ {
				if preBit(tSlot + i) {
					words[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			s.ApplyInto(words, tSlot, tSlot+w)
			for i := 0; i < w; i++ {
				if (words[i>>6]>>(uint(i)&63)&1 == 1) != preBit(tSlot+i) {
					flips++
				}
			}
		}
		tSlot += w
		mode++
	}
	return flips
}

// TestAdversaryBudgetNeverExceeded is the budget property test: across
// strategies, budgets, and hostile traffic designed to invite spending,
// the number of applied flips never exceeds the budget — and a greedy
// strategy facing unbounded targets spends exactly its budget.
func TestAdversaryBudgetNeverExceeded(t *testing.T) {
	const slots = 4096
	allOnes := func(int) bool { return true }
	for _, budget := range []int{0, 1, 7, 64, 1000} {
		for strat, m := range map[string]Model{
			StrategyRandom: Adversary{Strategy: StrategyRandom, Budget: budget, A: 0.9},
			StrategySolo:   Adversary{Strategy: StrategySolo, Budget: budget},
			StrategyPhase:  Adversary{Strategy: StrategyPhase, Budget: budget, A: 4, B: 2},
			StrategyHub:    Adversary{Strategy: StrategyHub, Budget: budget, A: 0.5},
		} {
			flips := countFlips(t, m, 11, 2, slots, allOnes)
			if flips > budget {
				t.Errorf("%s budget %d: %d flips applied", strat, budget, flips)
			}
			// All strategies above target all-ones traffic densely enough
			// (random at p=0.9 over 4096 slots) to exhaust small budgets.
			if budget <= 1000 && strat != StrategyRandom && flips != budget {
				t.Errorf("%s budget %d: greedy spend was %d", strat, budget, flips)
			}
		}
	}
}

// TestAdversaryCountingAgreesWithSpend pins the Accountant surface: a
// Counting wrapper around an adversary sampler observes exactly the
// flips the budget pays for.
func TestAdversaryCountingAgreesWithSpend(t *testing.T) {
	m := Adversary{Strategy: StrategySolo, Budget: 10}
	var acc countingAcc
	s := Counting(m.Sampler(5, 1), &acc)
	words := []uint64{^uint64(0), ^uint64(0)} // 128 detected beeps
	s.ApplyInto(words, 0, 128)
	if int(acc) != 10 {
		t.Errorf("accountant saw %d, want 10", acc)
	}
}

type countingAcc int64

func (a *countingAcc) Add(n int64) { *a += countingAcc(n) }

// TestAdversaryPositionDeterminism: stream consumption is per-slot and
// independent of budget state or decisions, so two samplers differing
// only in budget agree on every corruption decision until the smaller
// budget runs out — the greedy-monotonicity invariant FrontierSearch's
// binary search rests on.
func TestAdversaryPositionDeterminism(t *testing.T) {
	for _, strat := range []string{StrategyRandom, StrategySolo, StrategyPhase, StrategyHub} {
		small := Adversary{Strategy: strat, Budget: 20}
		big := Adversary{Strategy: strat, Budget: 400}
		switch strat {
		case StrategyRandom:
			small.A, big.A = 0.3, 0.3
		case StrategyPhase:
			small.A, small.B, big.A, big.B = 16, 3, 16, 3
		case StrategyHub:
			small.A, big.A = 0.5, 0.5
		}
		a := small.Sampler(9, 4)
		b := big.Sampler(9, 4)
		spent := 0
		for tSlot := 0; tSlot < 2000; tSlot++ {
			bit := tSlot%3 != 0
			fa := a.FlipAt(tSlot, bit)
			fb := b.FlipAt(tSlot, bit)
			if spent < 20 && fa != fb {
				t.Fatalf("%s: budgets diverged at slot %d before exhaustion", strat, tSlot)
			}
			if spent >= 20 && fa {
				t.Fatalf("%s: exhausted sampler flipped at slot %d", strat, tSlot)
			}
			if fb {
				spent++
			}
		}
	}
}

// TestAdversaryTopologyBinding: hub spends only at high-degree
// listeners once bound; unbound it degrades to treating every listener
// as a hub. Binding preserves model identity.
func TestAdversaryTopologyBinding(t *testing.T) {
	m := Adversary{Strategy: StrategyHub, Budget: 50, A: 0.5}
	tb, ok := Model(m).(TopologyBinder)
	if !ok {
		t.Fatal("Adversary does not implement TopologyBinder")
	}
	bound := tb.BindTopology([]int{1, 10}, 10)
	if bound.Spec() != m.Spec() || bound.Name() != m.Name() {
		t.Fatalf("binding changed identity: %q vs %q", bound.Spec(), m.Spec())
	}
	allOnes := func(int) bool { return true }
	if flips := countFlips(t, bound, 1, 0, 512, allOnes); flips != 0 {
		t.Errorf("low-degree node saw %d flips, want 0", flips)
	}
	if flips := countFlips(t, bound, 1, 1, 512, allOnes); flips != 50 {
		t.Errorf("hub node saw %d flips, want full budget 50", flips)
	}
	if flips := countFlips(t, m, 1, 0, 512, allOnes); flips != 50 {
		t.Errorf("unbound hub saw %d flips, want full budget 50", flips)
	}
	// Jam has no topology to bind.
	if _, ok := Model(Jam{Duty: 1, Period: 4}).(TopologyBinder); ok {
		t.Error("Jam should not implement TopologyBinder")
	}
}

// TestSoloNeverFabricates: the solo strategy only suppresses detected
// beeps; an all-silent channel stays silent whatever the budget.
func TestSoloNeverFabricates(t *testing.T) {
	m := Adversary{Strategy: StrategySolo, Budget: 1 << 20}
	allZero := func(int) bool { return false }
	if flips := countFlips(t, m, 2, 0, 8192, allZero); flips != 0 {
		t.Errorf("solo fabricated %d beeps on a silent channel", flips)
	}
}

// TestJamSchedule: the jammer is deterministic, global, and one-sided —
// it saturates silent slots on its duty cycle and never erases a beep.
func TestJamSchedule(t *testing.T) {
	m := Jam{Duty: 3, Period: 10}
	s := m.Sampler(123, 0)
	other := m.Sampler(456, 9)
	for tSlot := 0; tSlot < 200; tSlot++ {
		wantJam := tSlot%10 < 3
		if got := s.FlipAt(tSlot, false); got != wantJam {
			t.Fatalf("slot %d: silent-slot jam = %v, want %v", tSlot, got, wantJam)
		}
		if s.FlipAt(tSlot, true) {
			t.Fatalf("slot %d: jam erased a beep", tSlot)
		}
		if other.FlipAt(tSlot, false) != wantJam {
			t.Fatalf("slot %d: jam schedule varies across seed/node", tSlot)
		}
	}
	p01, p10 := m.FlipRates()
	if math.Abs(p01-0.3) > 1e-15 || p10 != 0 {
		t.Errorf("jam FlipRates = (%v, %v), want (0.3, 0)", p01, p10)
	}
}

// FuzzAdversaryBudget fuzzes the budget invariants across strategies:
// applied flips never exceed the budget, and the batch path agrees with
// a fresh scalar-path sampler bit for bit.
func FuzzAdversaryBudget(f *testing.F) {
	f.Add(uint64(1), 10, 0, uint8(0), 128)
	f.Add(uint64(7), 0, 3, uint8(1), 64)
	f.Add(uint64(9), 1000, 1, uint8(2), 300)
	f.Add(uint64(3), 33, 2, uint8(3), 65)
	f.Fuzz(func(t *testing.T, seed uint64, budget, node int, stratIdx uint8, slots int) {
		if budget < 0 || budget > 1<<20 || slots < 1 || slots > 4096 || node < 0 || node > 1<<20 {
			t.Skip()
		}
		strats := []Adversary{
			{Strategy: StrategyRandom, Budget: budget, A: 0.7},
			{Strategy: StrategySolo, Budget: budget},
			{Strategy: StrategyPhase, Budget: budget, A: 8, B: 3},
			{Strategy: StrategyHub, Budget: budget, A: 0.5},
		}
		m := strats[int(stratIdx)%len(strats)]
		if err := m.Validate(); err != nil {
			t.Fatalf("fuzz model invalid: %v", err)
		}
		pre := func(t int) bool { return t%2 == 0 || t%5 == 0 }
		flips := countFlips(t, m, seed, node, slots, pre)
		if flips > budget {
			t.Fatalf("%s: %d flips exceed budget %d", m.Spec(), flips, budget)
		}
		// Batch ≡ scalar over the same traffic.
		batchS := m.Sampler(seed, node)
		scalarS := m.Sampler(seed, node)
		words := make([]uint64, (slots+63)/64)
		for i := 0; i < slots; i++ {
			if pre(i) {
				words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		batchS.ApplyInto(words, 0, slots)
		for i := 0; i < slots; i++ {
			want := pre(i)
			if scalarS.FlipAt(i, pre(i)) {
				want = !want
			}
			if (words[i>>6]>>(uint(i)&63)&1 == 1) != want {
				t.Fatalf("%s: batch and scalar disagree at slot %d", m.Spec(), i)
			}
		}
	})
}

// TestHostileSpecErrorsCarryStrategyList: the unknown-strategy error
// names the valid strategies, mirroring the registry's unknown-model
// diagnostics.
func TestHostileSpecErrorsCarryStrategyList(t *testing.T) {
	_, err := Parse("adversary:warp:10")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, s := range []string{StrategyHub, StrategyPhase, StrategyRandom, StrategySolo} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("unknown-strategy error omits %q: %v", s, err)
		}
	}
}
