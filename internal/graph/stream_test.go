package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

// graphsEqual reports whether two graphs have identical CSR content
// (same n, m, maxDeg, offsets, and neighbor array).
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() || a.MaxDegree() != b.MaxDegree() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		ra, rb := a.Row(v), b.Row(v)
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

// TestFromRowFuncMatchesEdgeListGenerators: every streaming family must
// produce byte-identical CSR to the edge-list construction of the same
// graph, at several worker counts.
func TestFromRowFuncMatchesEdgeListGenerators(t *testing.T) {
	gridEdges := func(rows, cols int) [][2]int {
		var edges [][2]int
		id := func(r, c int) int { return r*cols + c }
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					edges = append(edges, [2]int{id(r, c), id(r, c+1)})
				}
				if r+1 < rows {
					edges = append(edges, [2]int{id(r, c), id(r+1, c)})
				}
			}
		}
		return edges
	}
	cubeEdges := func(dim int) [][2]int {
		n := 1 << uint(dim)
		var edges [][2]int
		for v := 0; v < n; v++ {
			for b := 0; b < dim; b++ {
				if u := v ^ (1 << uint(b)); v < u {
					edges = append(edges, [2]int{v, u})
				}
			}
		}
		return edges
	}
	cases := []struct {
		name string
		n    int
		rows RowFunc
		ref  *Graph
	}{
		{"grid7x9", 63, GridRows(7, 9), MustFromEdges(63, gridEdges(7, 9))},
		{"hypercube5", 32, HypercubeRows(5), MustFromEdges(32, cubeEdges(5))},
		{"complete17", 17, CompleteRows(17), func() *Graph {
			var e [][2]int
			for u := 0; u < 17; u++ {
				for v := u + 1; v < 17; v++ {
					e = append(e, [2]int{u, v})
				}
			}
			return MustFromEdges(17, e)
		}()},
		{"bipartite5x8", 13, CompleteBipartiteRows(5, 8), func() *Graph {
			var e [][2]int
			for u := 0; u < 5; u++ {
				for v := 5; v < 13; v++ {
					e = append(e, [2]int{u, v})
				}
			}
			return MustFromEdges(13, e)
		}()},
		{"hard20d4", 20, HardInstanceRows(20, 4), func() *Graph {
			var e [][2]int
			for u := 0; u < 4; u++ {
				for v := 4; v < 8; v++ {
					e = append(e, [2]int{u, v})
				}
			}
			return MustFromEdges(20, e)
		}()},
		{"cycle11", 11, CycleRows(11), func() *Graph {
			var e [][2]int
			for i := 0; i < 11; i++ {
				e = append(e, [2]int{i, (i + 1) % 11})
			}
			return MustFromEdges(11, e)
		}()},
		{"empty", 0, PathRows(0), MustFromEdges(0, nil)},
		{"path9", 9, PathRows(9), func() *Graph {
			var e [][2]int
			for i := 0; i+1 < 9; i++ {
				e = append(e, [2]int{i, i + 1})
			}
			return MustFromEdges(9, e)
		}()},
		{"star12", 12, StarRows(12), func() *Graph {
			var e [][2]int
			for i := 1; i < 12; i++ {
				e = append(e, [2]int{0, i})
			}
			return MustFromEdges(12, e)
		}()},
		{"bintree15", 15, CompleteBinaryTreeRows(15), func() *Graph {
			var e [][2]int
			for v := 1; v < 15; v++ {
				e = append(e, [2]int{(v - 1) / 2, v})
			}
			return MustFromEdges(15, e)
		}()},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 1, 2, 3, 8, -1} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				g, err := FromRowFunc(tc.n, tc.rows, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !graphsEqual(g, tc.ref) {
					t.Fatalf("FromRowFunc(workers=%d) differs from edge-list build", workers)
				}
			})
		}
	}
}

// TestGeneratorsDelegateToRowFuncs: the historical generator wrappers
// must still produce the shapes the rest of the repo depends on (spot
// checks beyond TestGeneratorShapes: wide/narrow structural invariants).
func TestGeneratorsDelegateToRowFuncs(t *testing.T) {
	g := Grid(4, 4)
	if g.N() != 16 || g.M() != 24 || g.MaxDegree() != 4 {
		t.Fatalf("Grid(4,4): N=%d M=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
}

// TestGeoDeterministicAcrossWorkers: the geo family is the shardability
// witness — identical CSR for 1 and many workers, on several n and seeds.
func TestGeoDeterministicAcrossWorkers(t *testing.T) {
	for _, n := range []int{17, 25, 49, 100, 1000} {
		for _, seed := range []uint64{1, 7, 0xdeadbeef} {
			ref, err := GeometricCells(n, seed, 1)
			if err != nil {
				t.Fatalf("geo(n=%d, seed=%d): %v", n, seed, err)
			}
			if !ref.Connected() {
				t.Fatalf("geo(n=%d, seed=%d) disconnected", n, seed)
			}
			if ref.MaxDegree() > 24 {
				t.Fatalf("geo(n=%d, seed=%d): Δ = %d > 24", n, seed, ref.MaxDegree())
			}
			for _, workers := range []int{2, 5, 8, -1} {
				g, err := GeometricCells(n, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !graphsEqual(g, ref) {
					t.Fatalf("geo(n=%d, seed=%d) differs between 1 and %d workers", n, seed, workers)
				}
			}
			// Different seeds give different graphs (with overwhelming
			// probability for n this size).
			other, err := GeometricCells(n, seed+1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n >= 49 && graphsEqual(other, ref) {
				t.Fatalf("geo(n=%d): seeds %d and %d give identical graphs", n, seed, seed+1)
			}
		}
	}
	if _, err := GeometricCells(16, 1, 0); err == nil {
		t.Fatal("geo with n=16 (side 4) should be rejected")
	}
}

// TestGeometricCellsMatchesGeoRows pins the banded geo build to its
// reference: GeometricCells's CSR arrays equal those FromRowFunc builds
// from GeoRows, which hashes every coordinate it reads, at square and
// non-square n (a partial last lattice row), three seeds, and worker
// counts that move the chunk boundaries where a band starts empty.
func TestGeometricCellsMatchesGeoRows(t *testing.T) {
	for _, n := range []int{17, 24, 1000, 4099, 1 << 16} {
		for _, seed := range []uint64{1, 7, 0xdeadbeef} {
			ref, err := FromRowFunc(n, GeoRows(n, seed), 1)
			if err != nil {
				t.Fatalf("GeoRows(n=%d, seed=%d): %v", n, seed, err)
			}
			for _, workers := range []int{1, 3, 8} {
				g, err := GeometricCells(n, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				if g.n != ref.n || g.m != ref.m || g.maxDeg != ref.maxDeg ||
					!slices.Equal(g.off, ref.off) || !slices.Equal(g.nbr, ref.nbr) {
					t.Fatalf("geo(n=%d, seed=%d, workers=%d): CSR arrays differ from GeoRows'", n, seed, workers)
				}
			}
		}
	}
}

// TestGeoRowsSymmetric: the geo RowFunc must be symmetric — the builder
// trusts symmetry, so it is pinned here.
func TestGeoRowsSymmetric(t *testing.T) {
	g, err := GeometricCells(200, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Row(v) {
			if !g.HasEdge(int(u), v) {
				t.Fatalf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("handshake violated: %d != 2·%d", sum, g.M())
	}
}

// TestFromRowFuncContractViolations: misbehaving row funcs fail with an
// error, never a panic.
func TestFromRowFuncContractViolations(t *testing.T) {
	cases := []struct {
		name string
		n    int
		rows RowFunc
	}{
		{"self-loop", 3, func(v int, emit func(u int32)) { emit(int32(v)) }},
		{"out-of-range", 3, func(v int, emit func(u int32)) { emit(99) }},
		{"negative", 3, func(v int, emit func(u int32)) { emit(-1) }},
		{"unsorted", 3, func(v int, emit func(u int32)) {
			if v == 0 {
				emit(2)
				emit(1)
			}
		}},
		{"duplicate", 3, func(v int, emit func(u int32)) {
			if v == 0 {
				emit(1)
				emit(1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromRowFunc(tc.n, tc.rows, 0); err == nil {
				t.Fatal("contract violation not reported")
			}
		})
	}
	if _, err := FromRowFunc(-1, PathRows(4), 0); err == nil {
		t.Fatal("negative n not reported")
	}
}

// TestCapacityErrorPaths: overflowing the int32 offset width is a typed
// *CapacityError on every construction path. maxOffset32 is shrunk so the
// test runs without gigabyte allocations.
func TestCapacityErrorPaths(t *testing.T) {
	saved := maxOffset32
	maxOffset32 = 100 // 50 edges
	defer func() { maxOffset32 = saved }()

	// FromRowFunc beyond the narrow capacity: typed error.
	_, err := FromRowFunc(20, CompleteRows(20), 0) // 380 directed edges
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("FromRowFunc overflow: got %v, want *CapacityError", err)
	}
	if ce.Vertices != 0 || ce.DirectedEdges != 380 {
		t.Fatalf("unexpected CapacityError contents: %+v", ce)
	}

	// FromEdges path shares the error type.
	var edges [][2]int
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	if _, err := FromEdges(20, edges); !errors.As(err, &ce) {
		t.Fatalf("FromEdges overflow: got %v, want *CapacityError", err)
	}

	// Square path: a graph within capacity whose square overflows fails
	// with the same typed error instead of panicking.
	maxOffset32 = 60
	st, err := FromRowFunc(16, StarRows(16), 0) // 30 directed edges; square is K16 = 240
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Square(); !errors.As(err, &ce) {
		t.Fatalf("Square overflow: got %v, want *CapacityError", err)
	}
	_, d2err := st.DistanceTwoColoring()
	if !errors.As(d2err, &ce) {
		t.Fatalf("DistanceTwoColoring overflow: got %v, want *CapacityError", d2err)
	}
	// Memoized: the second call returns the same error without redoing work.
	if _, err2 := st.DistanceTwoColoring(); !errors.Is(err2, d2err) {
		t.Fatalf("memoized d2 error differs: %v vs %v", err2, d2err)
	}
}

// TestEdgesSeqMatchesEdges: the streaming iterator yields exactly
// Edges(), in order, and supports early exit.
func TestEdgesSeqMatchesEdges(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(60)
		g := MustFromEdges(n, randomEdges(n, 0.2, r))
		want := g.Edges()
		var got [][2]int
		for u, v := range g.EdgesSeq() {
			got = append(got, [2]int{u, v})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: EdgesSeq yielded %d edges, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: edge %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		// Early exit stops the iteration.
		count := 0
		for range g.EdgesSeq() {
			count++
			if count == 3 {
				break
			}
		}
		if g.M() >= 3 && count != 3 {
			t.Fatalf("trial %d: early exit yielded %d", trial, count)
		}
	}
}

// TestNeighborhoodOrFrontierMatchesOr: the fused frontier pass computes
// exactly NeighborhoodOr's bits, and the summary covers every dirtied
// word (it may not cover untouched words).
func TestNeighborhoodOrFrontierMatchesOr(t *testing.T) {
	r := rng.New(4321)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		g := MustFromEdges(n, randomEdges(n, 0.02+0.1*r.Float64(), r))
		src := bitstring.New(n)
		for v := 0; v < n; v++ {
			if r.Bool(0.05) {
				src.Set(v)
			}
		}
		want := bitstring.New(n)
		g.NeighborhoodOr(src, want)

		got := bitstring.New(n)
		words := len(got.Words())
		sum := make([]uint64, (words+63)/64)
		g.NeighborhoodOrFrontier(src, got, sum)
		if !got.Equal(want) {
			t.Fatalf("trial %d: frontier OR differs from NeighborhoodOr", trial)
		}
		// Every nonzero word of got must have its summary bit set.
		for wi, w := range got.Words() {
			if w != 0 && sum[wi>>6]&(1<<(uint(wi)&63)) == 0 {
				t.Fatalf("trial %d: dirty word %d not in summary", trial, wi)
			}
		}
		// And the summary must not be wildly over-approximate: its bits
		// point at words NeighborhoodOrFrontier actually wrote.
		dirty := 0
		for _, s := range sum {
			dirty += bits.OnesCount64(s)
		}
		if src.Ones() == 0 && dirty != 0 {
			t.Fatalf("trial %d: empty src dirtied %d words", trial, dirty)
		}
	}
}

// TestFromRowFuncAllocationsFlat pins the builder's allocation count to
// its chunk count, not its vertex count: the same on a 100×100 and a
// 200×200 grid, serial and at 4 workers. One emit callback per vertex
// would add 10⁴ and 4·10⁴ allocations per pass.
func TestFromRowFuncAllocationsFlat(t *testing.T) {
	// A first collection starts the runtime's background mark workers,
	// whose own allocations would otherwise land in whichever build
	// triggers it.
	runtime.GC()
	for _, workers := range []int{1, 4} {
		allocs := func(side int) float64 {
			return testing.AllocsPerRun(5, func() {
				g, err := FromRowFunc(side*side, GridRows(side, side), workers)
				if err != nil || g.N() != side*side {
					t.Fatalf("side %d: %v", side, err)
				}
			})
		}
		small, large := allocs(100), allocs(200)
		if small != large {
			t.Errorf("workers=%d: %v allocations on a 100×100 grid, %v on a 200×200 one", workers, small, large)
		}
	}
}

func BenchmarkFromRowFuncGrid1M(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := FromRowFunc(1000*1000, GridRows(1000, 1000), workers)
				if err != nil {
					b.Fatal(err)
				}
				if g.M() != 2*1000*999 {
					b.Fatalf("m = %d", g.M())
				}
			}
		})
	}
}

// TestFromRowFuncReraisesRowPanic: a row function that panics on a
// generation shard is re-raised on FromRowFunc's caller at every shard
// count, instead of ending the process from the shard's goroutine.
func TestFromRowFuncReraisesRowPanic(t *testing.T) {
	rows := func(v int, emit func(u int32)) {
		if v == 700 {
			panic("row 700")
		}
		GridRows(32, 32)(v, emit)
	}
	for _, workers := range []int{1, 3, -1} {
		got := func() (v any) {
			defer func() { v = recover() }()
			FromRowFunc(32*32, rows, workers)
			return nil
		}()
		if got != "row 700" {
			t.Errorf("workers=%d: recovered %v, want the row's panic value", workers, got)
		}
	}
}
