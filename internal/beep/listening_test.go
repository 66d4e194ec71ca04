package beep

import (
	"testing"

	"repro/internal/bitstring"
	"repro/internal/graph"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestRunPhaseIntoListeningSet pins the batch window's listening set on
// every registered channel model, serial and parallel, over consecutive
// windows: a node that listens hears exactly what it hears in a run where
// every node listens, a node that does not keeps its reception buffer
// untouched and never gets a noise sampler, and the window_listeners
// counter sums the listeners. In "shrinking" nodes drop out for good, as
// finished programs do; in "rejoin" some nodes sit out one window and
// listen again, which changes nothing on a channel without a budget. The
// adversary's skipped slots cost it no budget, as a done program's
// skipped rounds in Run do, so after a skip its receptions may differ
// and only its never-skipping listeners are compared.
func TestRunPhaseIntoListeningSet(t *testing.T) {
	const (
		n       = 300
		length  = 100 // not a multiple of 64: windows end mid-word
		windows = 4
	)
	g, err := graph.RandomRegular(n, 6, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]string{
		"symmetric":       "symmetric:0.1",
		"asymmetric":      "asymmetric:0.05:0.25",
		"erasure":         "erasure:0.2:1",
		"gilbert-elliott": "gilbert-elliott:0.02:0.6:0.1:0.3",
		"adversary":       "adversary:random:30:0.2",
		"jam":             "jam:1:3",
	}
	for _, name := range noise.Names() {
		if _, ok := models[name]; !ok {
			t.Fatalf("registered model %q has no spec here", name)
		}
	}
	// listens reports whether v listens in window w.
	schedules := map[string]func(w, v int) bool{
		"shrinking": func(w, v int) bool { return v%8 > w },
		"rejoin":    func(w, v int) bool { return w != 1 || v%3 != 1 },
	}
	patterns := make([][]*bitstring.BitString, windows)
	for w := range patterns {
		patterns[w] = noisePatterns(g, length, uint64(40+w))
	}
	sentinel := bitstring.New(length)
	for i := 0; i < length; i += 3 {
		sentinel.Set(i)
	}
	for name, spec := range models {
		model, err := noise.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, budgeted := model.(noise.Adversary)
		for _, workers := range []int{1, 3} {
			// want[w][v] is v's reception in window w when every node listens.
			ref, err := NewNetwork(g, Params{Noise: model, Seed: 8, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]*bitstring.BitString, windows)
			for w := range want {
				if want[w], err = ref.RunPhase(patterns[w]); err != nil {
					t.Fatal(err)
				}
			}
			for sched, listens := range schedules {
				reg := obs.NewRegistry()
				nw, err := NewNetwork(g, Params{Noise: model, Seed: 8, Workers: workers, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]*bitstring.BitString, n)
				for v := range dst {
					dst[v] = bitstring.New(length)
				}
				listening := bitstring.New(n)
				skipped := make([]bool, n) // v sat out an earlier window
				everListened := make([]bool, n)
				var listeners int64
				for w := 0; w < windows; w++ {
					for v := 0; v < n; v++ {
						dst[v].CopyFrom(sentinel)
						listening.SetBool(v, listens(w, v))
					}
					listeners += int64(listening.Ones())
					if err := nw.RunPhaseInto(patterns[w], dst, listening); err != nil {
						t.Fatal(err)
					}
					for v := 0; v < n; v++ {
						switch {
						case !listening.Get(v):
							if !dst[v].Equal(sentinel) {
								t.Fatalf("%s %s workers %d window %d: non-listener %d's buffer was written", name, sched, workers, w, v)
							}
							skipped[v] = true
						case budgeted && skipped[v]:
							// The adversary's budget differs after a free skip.
						case !dst[v].Equal(want[w][v]):
							t.Fatalf("%s %s workers %d window %d: listener %d (skipped before: %v) hears %v, want %v",
								name, sched, workers, w, v, skipped[v], dst[v], want[w][v])
						}
						if listening.Get(v) {
							everListened[v] = true
						}
					}
				}
				for v := 0; v < n; v++ {
					if !everListened[v] && nw.noise[v] != nil {
						t.Fatalf("%s %s workers %d: node %d never listened but has a noise sampler", name, sched, workers, v)
					}
				}
				if nw.Round() != ref.Round() || nw.TotalBeeps() != ref.TotalBeeps() {
					t.Fatalf("%s %s workers %d: round %d beeps %d, want %d and %d",
						name, sched, workers, nw.Round(), nw.TotalBeeps(), ref.Round(), ref.TotalBeeps())
				}
				if got := reg.Counter("beep.window_listeners").Value(); got != listeners {
					t.Fatalf("%s %s workers %d: beep.window_listeners = %d, want %d", name, sched, workers, got, listeners)
				}
			}
		}
	}

	nw, err := NewNetwork(g, Params{Epsilon: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]*bitstring.BitString, n)
	for v := range dst {
		dst[v] = bitstring.New(length)
	}
	for _, bad := range []int{n - 1, n + 1, 0} {
		if err := nw.RunPhaseInto(patterns[0], dst, bitstring.New(bad)); err == nil {
			t.Errorf("listening set of %d bits for %d nodes accepted", bad, n)
		}
	}
}
