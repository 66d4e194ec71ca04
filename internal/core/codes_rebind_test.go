package core

import (
	"reflect"
	"testing"
)

// TestCodesRebindSharesTables: Params that differ only outside TableKey
// share the beep and distance codes, and the rebound decoder equals one
// built from scratch; a Params with another TableKey gets its own codes.
func TestCodesRebindSharesTables(t *testing.T) {
	p := DefaultParams(16, 3, 8, 0.1)
	base, err := BuildCodes(p)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := base.Rebind(p); err != nil || same != base {
		t.Fatalf("Rebind to its own Params = (%p, %v), want the receiver %p", same, err, base)
	}
	q := p
	q.Epsilon, q.Noise, q.Assignment, q.DisableSoloFilter = 0, "asymmetric:0.05:0.2", AssignRandom, true
	got, err := base.Rebind(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.dec.code != base.dec.code || got.dec.dist != base.dec.dist {
		t.Fatal("Rebind within one TableKey rebuilt the codes")
	}
	fresh, err := BuildCodes(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.p != q || !reflect.DeepEqual(got.dec, fresh.dec) {
		t.Fatal("rebound decode tables differ from a fresh build")
	}
	if got.dec.theta == base.dec.theta {
		t.Fatalf("θ = %d under both channels; the test needs thresholds that differ", got.dec.theta)
	}
	wider := p
	wider.R++
	other, err := base.Rebind(wider)
	if err != nil {
		t.Fatal(err)
	}
	if other.dec.code == base.dec.code {
		t.Fatal("Params with another TableKey shared the beep code")
	}
	var none *Codes
	if built, err := none.Rebind(p); err != nil || built.dec.code == base.dec.code || built.p != p {
		t.Fatalf("nil Rebind = (%v, %v), want fresh tables for p", built, err)
	}
}
