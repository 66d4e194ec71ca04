package beepalgs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The records the sweep stores carry only counters (rounds, all_done,
// output_ok), so a changed wave payload or a different but valid MIS
// would leave every golden record file byte-identical. These digests pin
// the native protocols' per-node outputs and round counts themselves.
//
// The constants were generated by running TestNativeOutputsPinned with
// empty digest tables on the tree before the flat program layout (the
// per-node heap-object WaveBroadcast and MIS), which reports every
// digest it computes, and copying them in. Never regenerate them from a
// tree under test: a mismatch is an output change.

// pinGraphs returns the pinned topologies: three 2^14-node geo graphs
// and a 64×64 grid (wave and MIS), plus one random regular graph (MIS).
func pinGraphs(t *testing.T) (wave, mis []string, graphs map[string]*graph.Graph) {
	t.Helper()
	graphs = make(map[string]*graph.Graph)
	for seed := uint64(1); seed <= 3; seed++ {
		g, err := graph.GeometricCells(1<<14, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("geo-%d", seed)
		graphs[name] = g
		wave = append(wave, name)
	}
	graphs["grid-64"] = graph.Grid(64, 64)
	wave = append(wave, "grid-64")
	reg, err := graph.RandomRegular(4096, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	graphs["regular-4096-8"] = reg
	mis = append(append([]string(nil), wave...), "regular-4096-8")
	return wave, mis, graphs
}

// pinnedWave maps "graph/early=<bool>" to the digest of the wave's
// per-node outputs and round count. The dense and the sparse run of one
// case must both match it.
var pinnedWave = map[string]string{
	"geo-1/early=false":   "dd2a9454de49fa4ac813730b49f34248897574608c2dc8e5ae6120cf6de9014d",
	"geo-1/early=true":    "ea141bb29bb0198a8a91f1f64f4d547baca2670d7ae2ad22d81093157e469a00",
	"geo-2/early=false":   "90997d6de6441ec31a7fd78a3a355a11527e09d35810b1a6890fa8daef9edcd3",
	"geo-2/early=true":    "21ae067e4068fc060041ba5592ad5cba2b8ff930638908413148f61de4f5a53a",
	"geo-3/early=false":   "90997d6de6441ec31a7fd78a3a355a11527e09d35810b1a6890fa8daef9edcd3",
	"geo-3/early=true":    "21ae067e4068fc060041ba5592ad5cba2b8ff930638908413148f61de4f5a53a",
	"grid-64/early=false": "1ba399cc92cbd96ff51c52c56f9f67c8de618cb7a89ccd59da96e27ec05d5920",
	"grid-64/early=true":  "b4b06ed2f8f8ffb3e59f3b53d3189c4eb0e8c43b567d9454cec76ee09787f793",
}

// pinnedMIS maps a graph name to the digest of RunMIS's membership
// vector and round count.
var pinnedMIS = map[string]string{
	"geo-1":          "7b791a6ce0d5031eaa7f8f059ef0d850b4e259c7f343d2567c5fa0e20bfb1f82",
	"geo-2":          "d57c5d01e1230452a1ddde2e9f11eccfd419bca11d32ea8a4f7113330b6b5f26",
	"geo-3":          "480a6af1577796c850dd3d6a818fcad3e16aaf171d3e82f58ec005f9f3356ee5",
	"grid-64":        "b595d60303026a10693093bce74aced37a7ef92f47fbf4d6a8a27bf9a3afba07",
	"regular-4096-8": "eeb1ff4dfe77296c4750c33935237bc263a5b6a5ed3854c189a0e5a4b82c416c",
}

// digestWave hashes a wave run: each node's output as a length byte and
// its bytes (0xff for nil, a node the marker never reached), then the
// round count.
func digestWave(out [][]byte, rounds int) string {
	h := sha256.New()
	for _, o := range out {
		if o == nil {
			h.Write([]byte{0xff})
			continue
		}
		h.Write([]byte{byte(len(o))})
		h.Write(o)
	}
	return digestTail(h.Sum(nil), rounds)
}

// digestMIS hashes a membership vector (one byte per node) and the round
// count.
func digestMIS(set []bool, rounds int) string {
	h := sha256.New()
	for _, in := range set {
		b := byte(0)
		if in {
			b = 1
		}
		h.Write([]byte{b})
	}
	return digestTail(h.Sum(nil), rounds)
}

// digestTail folds the round count into a per-node digest.
func digestTail(nodes []byte, rounds int) string {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(rounds))
	sum := sha256.Sum256(append(nodes, buf[:]...))
	return hex.EncodeToString(sum[:])
}

// TestNativeOutputsPinned pins the per-node outputs and round counts of
// RunWave (dense and sparse, with and without EarlyStop) and
// of RunMIS to digests generated before the flat program layout.
func TestNativeOutputsPinned(t *testing.T) {
	waveGraphs, misGraphs, graphs := pinGraphs(t)
	msg := []byte{0xa5, 0x3c, 0x0f}
	const bits = 21
	for _, name := range waveGraphs {
		g := graphs[name]
		source := g.N() / 3
		for _, early := range []bool{false, true} {
			key := fmt.Sprintf("%s/early=%v", name, early)
			for _, sparse := range []bool{false, true} {
				out, rounds, err := waveOutputs(g, source, msg, bits, 0, 3, WaveOptions{EarlyStop: early, Sparse: sparse})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := digestWave(out, rounds), pinnedWave[key]; got != want {
					t.Errorf("wave %s sparse=%v: digest %s (rounds %d), pinned %q", key, sparse, got, rounds, want)
				}
			}
		}
	}
	for _, name := range misGraphs {
		set, rounds, err := RunMIS(graphs[name], 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digestMIS(set, rounds), pinnedMIS[name]; got != want {
			t.Errorf("mis %s: digest %s (rounds %d), pinned %q", name, got, rounds, want)
		}
	}
}
