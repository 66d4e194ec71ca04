package beepalgs

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestWaveBroadcastSparseEquivalence runs the wave protocol through every
// (EarlyStop × Sparse) combination and pins all of them to the
// dense serial baseline: identical decoded outputs everywhere, and — for a
// fixed EarlyStop setting — identical round counts between the dense and
// sparse drivers.
func TestWaveBroadcastSparseEquivalence(t *testing.T) {
	msg := []byte{0xa5, 0x3c}
	const bits = 16
	graphs := map[string]*graph.Graph{
		"path":    graph.Path(40),
		"grid":    graph.Grid(9, 11),
		"cube":    graph.Hypercube(6),
		"bounded": graph.RandomBoundedDegree(180, 6, 0.04, rng.New(21)),
		"split":   graph.MustFromEdges(12, [][2]int{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}}),
	}
	for name, g := range graphs {
		baseline, baseRounds, err := waveOutputs(g, 0, msg, bits, 0, 4, WaveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, earlyStop := range []bool{false, true} {
			denseRounds := -1
			for _, sparse := range []bool{false, true} {
				out, rounds, err := waveOutputs(g, 0, msg, bits, 0, 4, WaveOptions{
					EarlyStop: earlyStop,
					Sparse:    sparse,
				})
				if err != nil {
					t.Fatal(err)
				}
				for v := range out {
					if !bytes.Equal(out[v], baseline[v]) {
						t.Fatalf("%s early=%v sparse=%v: node %d decoded %x, baseline %x",
							name, earlyStop, sparse, v, out[v], baseline[v])
					}
				}
				if denseRounds == -1 {
					denseRounds = rounds
				} else if rounds != denseRounds {
					t.Fatalf("%s early=%v sparse=%v: rounds %d, dense twin took %d",
						name, earlyStop, sparse, rounds, denseRounds)
				}
				if earlyStop && name == "path" && rounds >= baseRounds {
					t.Fatalf("%s: early stop did not shorten the run: %d vs %d",
						name, rounds, baseRounds)
				}
			}
		}
	}
}

// TestWaveBroadcastEarlyStopDecodesEverything guards the early-stop cutoff
// itself: marker + 3·Bits + 1 is a node's final possible relay round, so
// stopping there must never lose a downstream bit — checked on a long path,
// where any premature stop starves the whole suffix.
func TestWaveBroadcastEarlyStopDecodesEverything(t *testing.T) {
	g := graph.Path(120)
	msg := []byte{0xff, 0x01, 0x80}
	const bits = 24
	out, rounds, err := waveOutputs(g, 0, msg, bits, 0, 9, WaveOptions{EarlyStop: true, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if !wire.Equal(out[v], msg, bits) {
			t.Fatalf("node %d decoded %x, want %x", v, out[v], msg)
		}
	}
	if want := WaveRounds(bits, 119); rounds > want {
		t.Fatalf("early-stop run took %d rounds, exceeding the full budget %d", rounds, want)
	}
}

// waveBytesPerNode returns the heap bytes one EarlyStop wave broadcast of
// a bits-wide 0xa5… message allocates per node of g, read off the
// runtime's cumulative allocation counter around the run.
func waveBytesPerNode(t *testing.T, g *graph.Graph, bits, dBound int, sparse bool) float64 {
	t.Helper()
	msg := bytes.Repeat([]byte{0xa5}, (bits+7)/8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunWave(g, 0, msg, bits, dBound, 1, WaveOptions{EarlyStop: true, Sparse: sparse})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Payload(g.N() - 1); !wire.Equal(got, msg, bits) {
		t.Fatalf("bits=%d sparse=%v: far corner decoded %x, want %x", bits, sparse, got, msg)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(g.N())
}

// TestWaveSparseMemoryFlat bounds the sparse executor's allocation on a
// 2^14-node grid wave: apart from the payload array, whose ⌈bits/8⌉
// bytes per node hold the decoded message itself, it must not grow with
// the message width (each node holds one pending wake, however many
// waves drive it); it may exceed the dense scan's, whose state is the
// 16-byte wave nodes both executors share, by at most 14 B/node, which
// holds the sparse executor's own 12-byte wake schedule; and it must stay
// under an absolute 48 B/node — the flat node state plus that schedule,
// where one heap object per node and per-round wake buckets took about
// 230, one boxed output per node about 100, and a per-node interface
// slice with 32-byte nodes about 62.
func TestWaveSparseMemoryFlat(t *testing.T) {
	const side = 128
	g := graph.Grid(side, side)
	dBound := 2 * (side - 1) // the corner source's eccentricity
	payload := func(bits int) float64 { return float64((bits + 7) / 8) }
	sparse8 := waveBytesPerNode(t, g, 8, dBound, true)
	for _, bits := range []int{8, 64} {
		sparse := waveBytesPerNode(t, g, bits, dBound, true)
		dense := waveBytesPerNode(t, g, bits, dBound, false)
		t.Logf("bits=%d: sparse %.0f B/node, dense %.0f B/node", bits, sparse, dense)
		if sparse-payload(bits) > 1.1*(sparse8-payload(8)) {
			t.Errorf("bits=%d: sparse run allocates %.0f B/node besides its payload array, over 1.1× the %.0f at 8 bits",
				bits, sparse-payload(bits), sparse8-payload(8))
		}
		if sparse-dense > 14 {
			t.Errorf("bits=%d: sparse run allocates %.0f B/node, over 14 more than the dense run's %.0f", bits, sparse, dense)
		}
		if sparse > 48 {
			t.Errorf("bits=%d: sparse run allocates %.0f B/node, over the 48 B/node ceiling", bits, sparse)
		}
	}
}

// TestWaveSparseNoPerRoundAllocation runs the same grid wave on a serial
// network at 8 and 64 bits, 279 and 447 rounds: the runs differ only in
// length, so their heap allocation counts may differ by at most a few
// map-table rehashes, not by anything per round.
func TestWaveSparseNoPerRoundAllocation(t *testing.T) {
	const side = 128
	g := graph.Grid(side, side)
	dBound := 2 * (side - 1)
	mallocs := func(bits, wantRounds int) uint64 {
		msg := bytes.Repeat([]byte{0xa5}, (bits+7)/8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunWave(g, 0, msg, bits, dBound, 1, WaveOptions{EarlyStop: true, Sparse: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != wantRounds {
			t.Fatalf("bits=%d: %d rounds, want %d", bits, res.Rounds, wantRounds)
		}
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(8, 279), mallocs(64, 447)
	t.Logf("allocations: %d at 279 rounds, %d at 447 rounds", short, long)
	if diff := int64(long) - int64(short); diff <= -32 || diff >= 32 {
		t.Errorf("168 more rounds changed the allocation count by %d (%d → %d); a round must allocate nothing", diff, short, long)
	}
}
