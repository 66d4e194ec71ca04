package core

import (
	"testing"

	"repro/internal/noise"
)

// TestMembershipThresholdNoise: under a pluggable channel θ calibrates
// against the model's missed-beep rate p10, and reduces to the ε math
// for the symmetric channel.
func TestMembershipThresholdNoise(t *testing.T) {
	base := DefaultParams(32, 4, 10, 0.2)
	symTheta := base.MembershipThreshold()

	// An asymmetric channel with p10 = 0.2 must calibrate like ε = 0.2,
	// whatever its false-positive rate.
	asym := base
	asym.Channel = noise.Asymmetric{P01: 0.05, P10: 0.2}
	if got := asym.MembershipThreshold(); got != symTheta {
		t.Errorf("asymmetric p10=0.2 θ = %d, want symmetric ε=0.2 θ = %d", got, symTheta)
	}

	// Erasure read-as-1 never loses beeps: p10 = 0, so θ matches ε = 0,
	// and so does the nil (noiseless) channel.
	noiseless := DefaultParams(32, 4, 10, 0)
	noiseless.R = base.R // hold W fixed; only the rate may move θ
	er := base
	er.Channel = noise.Erasure{Q: 0.2, ReadAs1: true}
	if got, want := er.MembershipThreshold(), noiseless.MembershipThreshold(); got != want {
		t.Errorf("erasure read-as-1 θ = %d, want p10=0 θ = %d", got, want)
	}
	none := base
	none.Channel = nil
	if got, want := none.MembershipThreshold(), noiseless.MembershipThreshold(); got != want {
		t.Errorf("nil channel θ = %d, want ε=0 θ = %d", got, want)
	}

	if base.MembershipThreshold() != symTheta {
		t.Error("threshold of the base params drifted")
	}
}

// TestDefaultParamsNoise: DefaultParams is DefaultParamsFor over the
// symmetric channel; another model replaces ε with its worst marginal
// rate for the repetition calibration and rides along as the channel;
// and default Params over every registered model are map keys.
func TestDefaultParamsNoise(t *testing.T) {
	if got, want := DefaultParamsFor(64, 4, 12, noise.Symmetric{Eps: 0.1}), DefaultParams(64, 4, 12, 0.1); got != want {
		t.Errorf("symmetric channel diverged from DefaultParams: %+v", got)
	}
	if got, want := DefaultParamsFor(64, 4, 12, nil).R, DefaultParams(64, 4, 12, 0).R; got != want {
		t.Errorf("nil channel R = %d, want noiseless %d", got, want)
	}

	// π_B = 1/6, rate = (5/6)·0.02 + (1/6)·0.3 ≈ 0.0667 → the ε<0.07
	// band of the repetition table.
	m, err := noise.Parse("gilbert-elliott:0.020:0.3:0.05:0.25")
	if err != nil {
		t.Fatal(err)
	}
	burst := DefaultParamsFor(64, 4, 12, m)
	if want := DefaultParams(64, 4, 12, 0.0667).R; burst.R != want {
		t.Errorf("burst R = %d, want rate-calibrated %d", burst.R, want)
	}
	if burst.Channel != m {
		t.Errorf("channel not carried: %v", burst.Channel)
	}
	if err := burst.Validate(64, 4); err != nil {
		t.Errorf("derived params invalid: %v", err)
	}

	// The code cache keys on the whole Params, channel included, so
	// default Params over every registered model must be a usable map
	// key, and two parses of one spec must meet at one key.
	specs := map[string]string{
		noise.NameSymmetric:      "symmetric:0.1",
		noise.NameAsymmetric:     "asymmetric:0.05:0.2",
		noise.NameErasure:        "erasure:0.1:1",
		noise.NameGilbertElliott: "gilbert-elliott:0.02:0.3:0.05:0.25",
		noise.NameAdversary:      "adversary:phase:64:32:4",
		noise.NameJam:            "jam:1:10",
	}
	keys := map[Params]string{}
	for _, name := range noise.Names() {
		spec, ok := specs[name]
		if !ok {
			t.Fatalf("registered model %q has no spec here", name)
		}
		for i := 0; i < 2; i++ {
			m, err := noise.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParamsFor(64, 4, 12, m)
			if prev, dup := keys[p]; dup && prev != name {
				t.Fatalf("%s and %s share a key", prev, name)
			}
			keys[p] = name
		}
	}
	if len(keys) != len(noise.Names()) {
		t.Fatalf("%d keys for %d models", len(keys), len(noise.Names()))
	}
}

// TestDefaultParamsHostile: hostile channels calibrate against their
// worst-case per-window rate, not their (meaningless) marginal rates —
// the adversary's design rate sits in the ε<0.2 band whatever the
// budget, and a jammer calibrates at its duty fraction.
func TestDefaultParamsHostile(t *testing.T) {
	adv := DefaultParamsFor(64, 4, 12, noise.Adversary{Strategy: noise.StrategySolo, Budget: 1000})
	if want := DefaultParams(64, 4, 12, 0.15).R; adv.R != want {
		t.Errorf("adversary R = %d, want worst-case-calibrated %d", adv.R, want)
	}
	if err := adv.Validate(64, 4); err != nil {
		t.Errorf("derived params invalid: %v", err)
	}
	// θ provisions for worst-case suppression, not the zero marginal.
	noiseless := adv
	noiseless.Channel = nil
	if adv.MembershipThreshold() <= noiseless.MembershipThreshold() {
		t.Errorf("adversarial θ = %d not above noiseless θ = %d",
			adv.MembershipThreshold(), noiseless.MembershipThreshold())
	}

	jam := DefaultParamsFor(64, 4, 12, noise.Jam{Duty: 1, Period: 10})
	if want := DefaultParams(64, 4, 12, 0.1).R; jam.R != want {
		t.Errorf("jam R = %d, want duty-calibrated %d", jam.R, want)
	}
}

// TestValidateNoiseSpec: Params validation rejects an invalid channel
// model.
func TestValidateNoiseSpec(t *testing.T) {
	p := DefaultParams(32, 4, 10, 0)
	p.Channel = noise.Asymmetric{P01: 0.05, P10: 0.2}
	if err := p.Validate(32, 4); err != nil {
		t.Fatalf("valid channel rejected: %v", err)
	}
	p.Channel = noise.Asymmetric{P01: 0.9, P10: 0.1}
	if err := p.Validate(32, 4); err == nil {
		t.Errorf("channel %s passed validation", p.Channel.Spec())
	}
}
