package sweep

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func baseSpec() Scenario {
	return Scenario{
		Family: FamilyRegular, N: 16, Param: 2, Epsilon: 0.1,
		Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 2,
		MsgBits: 10, Replicate: 0,
		GraphSeed: 7, ChannelSeed: 8, AlgSeed: 9,
	}
}

func TestHashIdenticalSpecs(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	if a.Hash() != b.Hash() {
		t.Fatalf("identical specs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	// Hashing must be a pure function — repeated calls agree.
	if a.Hash() != a.Hash() {
		t.Fatal("Hash is not stable across calls")
	}
}

// TestHashSingleAxisSensitivity changes every spec field, one at a time,
// and requires every variant (and the base) to have pairwise distinct
// hashes — the property the content-addressed cache's correctness rests
// on. Walking the fields by reflection means a future Scenario field
// cannot silently escape the hash.
func TestHashSingleAxisSensitivity(t *testing.T) {
	variants := map[string]Scenario{"base": baseSpec()}
	rv := reflect.ValueOf(baseSpec())
	for i := 0; i < rv.NumField(); i++ {
		field := rv.Type().Field(i)
		sc := baseSpec()
		fv := reflect.ValueOf(&sc).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			// Any distinct string changes the encoding; validity is not
			// required for hashing.
			fv.SetString(fv.String() + "x")
		case reflect.Int:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.01)
		default:
			t.Fatalf("unhandled Scenario field kind %s (%s) — extend the test", fv.Kind(), field.Name)
		}
		variants[field.Name] = sc
	}
	seen := make(map[string]string)
	for name, sc := range variants {
		h := sc.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("variants %q and %q collide on hash %s", prev, name, h)
		}
		seen[h] = name
	}
	if len(seen) != reflect.TypeOf(Scenario{}).NumField()+1 {
		t.Errorf("expected %d distinct hashes, got %d", reflect.TypeOf(Scenario{}).NumField()+1, len(seen))
	}
}

// TestRecordRoundTrip executes a tiny scenario and requires the record
// to survive JSONL encode → decode → re-encode bit-exactly.
func TestRecordRoundTrip(t *testing.T) {
	sc := baseSpec()
	rec, err := Execute(sc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	got, err := DecodeRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record round-trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	var buf2 bytes.Buffer
	if err := EncodeJSONL(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded record differs:\n %s\n %s", buf.Bytes(), buf2.Bytes())
	}
}

// TestDecodeRejectsTamperedRecord requires hash verification on decode.
func TestDecodeRejectsTamperedRecord(t *testing.T) {
	rec, err := Execute(baseSpec(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Spec.Rounds++ // spec no longer matches stored hash
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(bytes.TrimSpace(buf.Bytes())); err == nil {
		t.Fatal("tampered record decoded without error")
	}
}

// TestExecuteDeterministic asserts the spec-completeness contract: two
// executions of one spec agree on everything except wall time, under
// any worker setting.
func TestExecuteDeterministic(t *testing.T) {
	sc := baseSpec()
	a, err := Execute(sc, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(sc, ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.WallNanos, b.WallNanos = 0, 0
	a.BuildNanos, b.BuildNanos = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("executions differ:\n %+v\n %+v", a, b)
	}
}

func TestValidate(t *testing.T) {
	bad := []Scenario{
		{},
		{Family: "nope", N: 8, Param: 2, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyRegular, N: 1, Param: 2, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyPG, Param: 3, N: 26, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},     // N must be 0 (derived)
		{Family: FamilyRegular, N: 8, Param: 2, Engine: EngineBeep, Workload: WorkloadGossip, Rounds: 1}, // beep ∌ gossip
		{Family: FamilyRegular, N: 8, Param: 2, Engine: EngineAlg1, Workload: WorkloadGossip},            // Rounds 0
		{Family: FamilyRegular, N: 8, Param: 2, Engine: EngineAlg1, Workload: WorkloadMIS, Rounds: 3},    // mis sets Rounds 0
		{Family: FamilyRegular, N: 8, Param: 2, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1, Epsilon: 0.5},
		{Family: FamilyRegular, N: 8, Param: 2, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1, Epsilon: math.NaN()},
		// Derived vertex counts past graph.MaxVertices: 2³¹, 2⁶⁴ (wraps
		// to 0), 46341² and (2³²)² (wraps to 0).
		{Family: FamilyHypercube, Param: 31, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHypercube, Param: 64, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyGrid, Param: 46341, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyGrid, Param: 1 << 32, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		// The largest hypercube and grid within graph.MaxVertices, whose
		// degree arrays alone need 4 and 8 GiB.
		{Family: FamilyHypercube, Param: 30, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyGrid, Param: 46340, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		// One past MaxGraphEntries in each family, and the hard instance
		// whose 8 GiB degree array once ran sweep.Run out of memory.
		{Family: FamilyRegular, N: 1<<26 + 1, Param: 3, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyBounded, N: 1<<26 + 1, Param: 3, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHard, N: 1<<27 + 1, Param: 8192, Engine: EngineCongest, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHard, N: 1<<31 - 1, Param: 1, Engine: EngineCongest, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyComplete, N: 1<<14 + 1, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyGeo, N: 10737419, Engine: EngineBeep, Workload: WorkloadBroadcast},
		{Family: FamilyGrid, Param: 7328, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHypercube, Param: 24, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyPG, Param: 511, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		// Bandwidths past MaxMsgBits, the smallest and the one that
		// once ran sweepd out of memory.
		{Family: FamilyRegular, N: 16, Param: 4, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1, MsgBits: MaxMsgBits + 1},
		{Family: FamilyRegular, N: 16, Param: 4, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1, MsgBits: 2000000000},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: invalid spec %+v passed validation", i, sc)
		}
	}
	good := []Scenario{
		baseSpec(),
		// The largest graph within MaxGraphEntries in each family.
		{Family: FamilyRegular, N: 1 << 26, Param: 3, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyBounded, N: 1 << 26, Param: 3, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHard, N: 1 << 27, Param: 8192, Engine: EngineCongest, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyComplete, N: 1 << 14, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyGeo, N: 10737418, Engine: EngineBeep, Workload: WorkloadBroadcast},
		{Family: FamilyGrid, Param: 7327, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyHypercube, Param: 23, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		{Family: FamilyPG, Param: 510, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1},
		// The widest bandwidth allowed.
		{Family: FamilyRegular, N: 16, Param: 4, Engine: EngineAlg1, Workload: WorkloadGossip, Rounds: 1, MsgBits: MaxMsgBits},
	}
	for _, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", sc, err)
		}
	}
}

// TestGridExpandRejectsNaNEpsilon: a NaN ε fails validation with an
// error before the grid point is hashed, whose JSON encoding would
// panic on it.
func TestGridExpandRejectsNaNEpsilon(t *testing.T) {
	g := Grid{
		Families: []string{FamilyRegular}, Ns: []int{16}, Params: []int{3},
		Epsilons: []float64{0.1, math.NaN()}, Engines: []string{EngineAlg1},
	}
	if _, err := g.Expand(); err == nil {
		t.Fatal("grid with ε = NaN expanded without error")
	}
}

// TestExecuteEnginesAndWorkloads smoke-tests every supported
// engine × workload pair on a tiny graph and checks the cross-engine
// invariants (native CONGEST has no beeps; MIS outputs verify).
func TestExecuteEnginesAndWorkloads(t *testing.T) {
	for _, eng := range []string{EngineAlg1, EngineTDMA, EngineCongest, EngineBeep} {
		for _, wl := range []string{WorkloadGossip, WorkloadMIS} {
			if !Supports(eng, wl) {
				continue
			}
			sc := Scenario{
				Family: FamilyRegular, N: 12, Param: 2, Epsilon: 0.05,
				Engine: eng, Workload: wl,
				GraphSeed: 3, ChannelSeed: 4, AlgSeed: 5,
			}
			if wl == WorkloadGossip {
				sc.Rounds = 2
			}
			rec, err := Execute(sc, ExecOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, wl, err)
			}
			if !rec.Counters.AllDone {
				t.Errorf("%s/%s: did not finish in budget", eng, wl)
			}
			if eng == EngineCongest && (rec.Counters.BeepRounds != 0 || rec.Counters.Beeps != 0) {
				t.Errorf("congest engine reported beeps: %+v", rec.Counters)
			}
			if eng != EngineCongest && wl == WorkloadGossip && rec.Counters.Beeps == 0 {
				t.Errorf("%s/%s: no energy recorded", eng, wl)
			}
			if wl == WorkloadMIS {
				if rec.Counters.OutputOK == nil || !*rec.Counters.OutputOK {
					t.Errorf("%s/mis: output did not verify (%+v)", eng, rec.Counters.OutputOK)
				}
			}
			if eng == EngineTDMA && (rec.Colors < 1 || rec.Rho < 1) {
				t.Errorf("tdma record missing schedule parameters: %+v", rec)
			}
		}
	}
}
