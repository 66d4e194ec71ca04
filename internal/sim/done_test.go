package sim_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sim"
)

// doneWatch wraps one node's algorithm and records whether its Done ever
// went from true back to false. An engine calls one node's callbacks in
// order, never concurrently, so the fields need no lock.
type doneWatch struct {
	congest.BroadcastAlgorithm
	done, regressed bool
}

func (w *doneWatch) Done() bool {
	d := w.BroadcastAlgorithm.Done()
	if w.done && !d {
		w.regressed = true
	}
	w.done = w.done || d
	return d
}

// TestDoneIsMonotone pins the congest.BroadcastAlgorithm rule the beep
// windows rely on to skip finished listeners: once a node's Done returns
// true it keeps returning true. Every registered workload runs through
// Algorithm 1 and TDMA on a noisy channel, and every Done call is
// watched.
func TestDoneIsMonotone(t *testing.T) {
	g, err := graph.RandomRegular(32, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, wn := range sim.WorkloadNames() {
		wl, _ := sim.WorkloadFor(wn)
		rounds := 0
		if wl.UsesRounds() {
			rounds = 2
		}
		for _, en := range []string{sim.EngineAlg1, sim.EngineTDMA} {
			eng, _ := sim.EngineFor(en)
			inst, err := eng.Prepare(g, sim.Config{
				MsgBits:     wl.MsgBits(g),
				Channel:     noise.Symmetric{Eps: 0.1},
				ChannelSeed: 3,
				AlgSeeds:    []uint64{4},
				Workload:    wl,
				Rounds:      rounds,
			})
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", en, wn, err)
			}
			watched := make([]doneWatch, g.N())
			algs := make([]congest.BroadcastAlgorithm, g.N())
			for v, a := range wl.Algs(g, rounds) {
				watched[v].BroadcastAlgorithm = a
				algs[v] = &watched[v]
			}
			res, _, err := inst.Run([][]congest.BroadcastAlgorithm{algs}, wl.Budget(g, rounds))
			if err != nil {
				t.Fatalf("%s/%s: run: %v", en, wn, err)
			}
			for v := range watched {
				if watched[v].regressed {
					t.Errorf("%s/%s: node %d's Done went from true back to false", en, wn, v)
				}
				if res[0].AllDone && !watched[v].done {
					t.Errorf("%s/%s: run finished but node %d never reported Done", en, wn, v)
				}
			}
		}
	}
}
