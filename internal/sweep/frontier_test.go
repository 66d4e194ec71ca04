package sweep

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// advLeader is the frontier test scenario: leader election (a workload
// with a real output-validity notion — gossip's is unverified) on the
// TDMA baseline under a solo adversary with the given budget ceiling.
func advLeader(budget string) Scenario {
	return Scenario{
		Family: FamilyRegular, N: 8, Param: 2,
		Noise:  "adversary:solo:" + budget,
		Engine: EngineTDMA, Workload: WorkloadLeader,
		GraphSeed: 3, ChannelSeed: 4, AlgSeed: 5,
	}
}

// TestExecuteBrokenProtocol: an overwhelming adversary terminates the
// run — no hang, no panic, no scenario error — and records a typed
// broken-protocol failure attributed to the channel.
func TestExecuteBrokenProtocol(t *testing.T) {
	rec, err := Execute(advLeader("1048576"), ExecOptions{})
	if err != nil {
		t.Fatalf("broken protocol surfaced as a scenario error: %v", err)
	}
	if !rec.Broken() {
		t.Fatalf("overwhelming adversary did not break leader election: %+v", rec.Counters)
	}
	if rec.Counters.OutputOK == nil || *rec.Counters.OutputOK {
		t.Errorf("output_ok = %v, want false", rec.Counters.OutputOK)
	}
	var pbe *sim.ProtocolBrokenError
	if !errors.As(rec.BrokenError(), &pbe) {
		t.Fatalf("BrokenError() = %v, want *sim.ProtocolBrokenError", rec.BrokenError())
	}
	if pbe.Workload != WorkloadLeader || pbe.Engine != EngineTDMA || pbe.Noise != rec.Spec.Noise {
		t.Errorf("broken-protocol attribution wrong: %+v", pbe)
	}

	// A zero-budget adversary is a noiseless channel: healthy record.
	healthy, err := Execute(advLeader("0"), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Broken() {
		t.Fatalf("zero-budget adversary recorded failure %q", healthy.Failure)
	}
	if healthy.BrokenError() != nil {
		t.Errorf("healthy record has BrokenError %v", healthy.BrokenError())
	}
}

// TestFrontierSearch: the frontier search brackets and bisects to a
// well-defined minimal breaking budget, byte-identically across runs,
// and a warm store answers a repeat search with zero re-simulation.
func TestFrontierSearch(t *testing.T) {
	scs := []Scenario{advLeader("4096")}
	store := NewMemStore()
	first, err := FrontierSearch(scs, store, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("got %d results", len(first))
	}
	r := first[0]
	if r.Strategy != "solo" || r.MaxBudget != 4096 {
		t.Fatalf("result header wrong: %+v", r)
	}
	if r.Unbroken() {
		t.Fatal("ceiling budget 4096 did not break TDMA leader election")
	}
	if r.Breaking < 1 || r.Breaking > 4096 {
		t.Fatalf("breaking budget %d outside (0, 4096]", r.Breaking)
	}
	if r.Ran != r.Probes || r.Cached != 0 {
		t.Errorf("cold search: probes=%d ran=%d cached=%d", r.Probes, r.Ran, r.Cached)
	}
	// The boundary is real: Breaking breaks, Breaking-1 does not.
	at, ok := store.Get(probeSpec(scs[0], r.Breaking).Hash())
	if !ok || !at.Broken() {
		t.Errorf("budget %d record missing or unbroken", r.Breaking)
	}
	below, ok := store.Get(probeSpec(scs[0], r.Breaking-1).Hash())
	if !ok || below.Broken() {
		t.Errorf("budget %d record missing or broken", r.Breaking-1)
	}

	// Determinism: a fresh store reproduces the identical result.
	second, err := FrontierSearch(scs, NewMemStore(), FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("frontier not deterministic:\n %+v\n %+v", first, second)
	}

	// Resume: the warm store answers every probe without simulation.
	warm, err := FrontierSearch(scs, store, FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := warm[0]
	if w.Ran != 0 || w.Cached != w.Probes {
		t.Errorf("warm search re-simulated: probes=%d ran=%d cached=%d", w.Probes, w.Ran, w.Cached)
	}
	if w.Breaking != r.Breaking || w.Probes != r.Probes {
		t.Errorf("warm search diverged: %+v vs %+v", w, r)
	}

	// An unbreakable ceiling reports -1 after a single probe.
	un, err := FrontierSearch([]Scenario{advLeader("0")}, NewMemStore(), FrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !un[0].Unbroken() || un[0].Probes != 1 {
		t.Errorf("zero ceiling: %+v, want unbroken after 1 probe", un[0])
	}

	// Non-adversary specs have no budget axis to search.
	bad := advLeader("8")
	bad.Noise = "symmetric:0.1"
	if _, err := FrontierSearch([]Scenario{bad}, NewMemStore(), FrontierOptions{}); err == nil {
		t.Error("frontier accepted a non-adversary noise spec")
	}
}

// probeSpec mirrors frontierOne's probe construction for assertions.
func probeSpec(sc Scenario, budget int) Scenario {
	psc := sc
	psc.Noise = "adversary:solo:" + strconv.Itoa(budget)
	return psc
}
