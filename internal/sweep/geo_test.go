package sweep

import (
	"reflect"
	"testing"

	"repro/internal/engine"
)

func geoSpec() Scenario {
	return Scenario{
		Family: FamilyGeo, N: 400,
		Engine: EngineBeep, Workload: WorkloadBroadcast,
		GraphSeed: 11, AlgSeed: 12,
	}
}

func TestGeoFamilyValidation(t *testing.T) {
	good := geoSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geo spec rejected: %v", err)
	}
	small := good
	small.N = 16
	if err := small.Validate(); err == nil {
		t.Error("geo with N < 17 accepted")
	}
	parm := good
	parm.Param = 3
	if err := parm.Validate(); err == nil {
		t.Error("geo with a Param accepted")
	}
	if !graphSeedMatters(FamilyGeo) {
		t.Error("geo graphs are seed-dependent; sliceKey must keep GraphSeed")
	}
}

func TestGeoBroadcastEndToEnd(t *testing.T) {
	rec, err := Execute(geoSpec(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Counters.AllDone {
		t.Fatal("broadcast on geo did not terminate")
	}
	if rec.Counters.OutputOK == nil || !*rec.Counters.OutputOK {
		t.Fatal("broadcast output did not verify")
	}
	if rec.Graph.N != 400 || rec.Graph.MaxDegree > 24 {
		t.Fatalf("unexpected geo graph shape: %+v", rec.Graph)
	}
	// The sparse wave on a connected bounded-degree graph must come in
	// far under the dense worst-case budget of N+1 rounds' worth of work;
	// rounds themselves are O(D + b).
	if rec.Counters.BeepRounds <= 0 {
		t.Fatalf("no rounds recorded: %+v", rec.Counters)
	}
}

// TestGenWorkersRecordIdentity pins the streaming-generation determinism
// contract at the record level: the pool width that generates the graph
// (ExecOptions.Workers, which sizes the engine's pool too) may never
// change a stored byte (timing fields aside).
func TestGenWorkersRecordIdentity(t *testing.T) {
	specs := []Scenario{
		geoSpec(),
		{Family: FamilyGrid, Param: 20, Engine: EngineCongest, Workload: WorkloadBroadcast, AlgSeed: 3},
		{Family: FamilyHard, N: 40, Param: 8, Engine: EngineAlg1, Workload: WorkloadLeader, Epsilon: 0.05, ChannelSeed: 4, AlgSeed: 5},
	}
	for _, sc := range specs {
		var want Record
		for i, w := range []int{0, 1, 8, engine.AutoWorkers} {
			rec, err := Execute(sc, ExecOptions{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sc.Family, w, err)
			}
			rec.WallNanos, rec.BuildNanos = 0, 0
			if i == 0 {
				want = rec
				continue
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("%s: record differs between workers=0 and %d:\n%+v\nvs\n%+v",
					sc.Family, w, rec, want)
			}
		}
	}
}
