package sweep

import (
	"runtime"
	"testing"

	"repro/internal/algorithms/broadcast"
	"repro/internal/beepalgs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestNativeBroadcastAllocationPerNode pins what a native broadcast
// costs where records are made: one geo scenario through Run, graph
// build and output check included, allocates at most 112 B per node at
// n = 2^14 and 2^16, and the same number of heap objects at both sizes
// within 64. A run that boxed or copied one value per node, as the
// per-node output contract did, fails both rules (about 217 B per node,
// and one more allocation per node); one that kept a per-node interface
// slice beside 32-byte wave nodes fails the first (about 121 B per node).
func TestNativeBroadcastAllocationPerNode(t *testing.T) {
	run := func(n int) (bytesPerNode float64, mallocs uint64) {
		sc := Scenario{Family: FamilyGeo, N: n, Engine: EngineBeep, Workload: WorkloadBroadcast, GraphSeed: 11, AlgSeed: 12}
		store := NewMemStore()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, _, err := Run([]Scenario{sc}, store, Options{Jobs: 1, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ok := recs[0].Counters.OutputOK; ok == nil || !*ok || !recs[0].Counters.AllDone {
			t.Fatalf("n=%d: broadcast did not verify: %+v", n, recs[0].Counters)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), after.Mallocs - before.Mallocs
	}
	run(1 << 14) // warm-up: the first run pays the process's one-time set-up
	small, smallMallocs := run(1 << 14)
	large, largeMallocs := run(1 << 16)
	t.Logf("n=2^14: %.0f B/node, %d mallocs; n=2^16: %.0f B/node, %d mallocs", small, smallMallocs, large, largeMallocs)
	for _, c := range []struct {
		n   string
		got float64
	}{{"2^14", small}, {"2^16", large}} {
		if c.got > 112 {
			t.Errorf("n=%s: one native broadcast allocates %.0f B/node, over 112", c.n, c.got)
		}
	}
	if diff := int64(largeMallocs) - int64(smallMallocs); diff <= -64 || diff >= 64 {
		t.Errorf("4× the nodes changed the allocation count by %d (%d → %d); nothing may be allocated per node", diff, smallMallocs, largeMallocs)
	}
}

// tamperedBroadcast is the native broadcast with its decoded payloads
// altered between the run and the check: the wave runs as the broadcast
// workload runs it, and broadcast.Verify then reads the payloads through
// tamper's accessor. The embedded workload supplies everything else.
type tamperedBroadcast struct {
	sim.Workload
	name    string
	tamper  func(wave *beepalgs.WaveResult) func(v int) []byte
	verdict *error // the last run's verdict
}

func (w tamperedBroadcast) Name() string { return w.name }

func (w tamperedBroadcast) RunBeep(g *graph.Graph, seed uint64, metrics *obs.Registry) (*core.Result, error) {
	n := g.N()
	wave, err := beepalgs.RunWave(g, 0, broadcast.Payload(n), broadcast.PayloadBits(n), 0, seed,
		beepalgs.WaveOptions{EarlyStop: true, Sparse: true, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	*w.verdict = broadcast.Verify(g, 0, n, w.tamper(wave))
	return &core.Result{BeepRounds: wave.Rounds, AllDone: wave.AllDone, Verdict: *w.verdict}, nil
}

var tamperedVerdict error

func init() {
	bc, _ := sim.WorkloadFor(WorkloadBroadcast)
	// On the hard instance with N = 6 and Param = 2, nodes 0–3 form
	// K_{2,2} with the root, and nodes 4 and 5 are isolated.
	sim.RegisterWorkload(tamperedBroadcast{bc, "broadcast-corrupt-slot", func(w *beepalgs.WaveResult) func(int) []byte {
		w.Payload(1)[0] ^= 1 // message bit 0 of a reached node, in the run's payload array
		return w.Payload
	}, &tamperedVerdict})
	sim.RegisterWorkload(tamperedBroadcast{bc, "broadcast-unreached-payload", func(w *beepalgs.WaveResult) func(int) []byte {
		return func(v int) []byte {
			if v == 5 {
				return broadcast.Payload(6)
			}
			return w.Payload(v)
		}
	}, &tamperedVerdict})
}

// TestNativeVerdictRejectsBadPayloads: the native engine's typed check
// reaches the record. A corrupted payload slot of a reached node and a
// payload on a node the marker never reached each make the check's
// verdict non-nil and the record's output_ok false, while the untouched
// run on the same graph verifies.
func TestNativeVerdictRejectsBadPayloads(t *testing.T) {
	spec := func(workload string) Scenario {
		return Scenario{Family: FamilyHard, N: 6, Param: 2, Engine: EngineBeep, Workload: workload, AlgSeed: 5}
	}
	rec, err := Execute(spec(WorkloadBroadcast), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok := rec.Counters.OutputOK; ok == nil || !*ok || !rec.Counters.AllDone {
		t.Fatalf("untouched broadcast: all_done %v, output_ok %v, want both true", rec.Counters.AllDone, ok)
	}
	for _, wl := range []string{"broadcast-corrupt-slot", "broadcast-unreached-payload"} {
		tamperedVerdict = nil
		rec, err := Execute(spec(wl), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if tamperedVerdict == nil {
			t.Errorf("%s: the check accepted the tampered payloads", wl)
		}
		if ok := rec.Counters.OutputOK; ok == nil || *ok {
			t.Errorf("%s: output_ok %v, want false", wl, ok)
		}
		if !rec.Counters.AllDone {
			t.Errorf("%s: all_done false; the run itself finished", wl)
		}
		t.Logf("%s: %v", wl, tamperedVerdict)
	}
}
