package graph

// Streaming sharded CSR construction. A RowFunc describes a graph as a
// pure function from vertex to sorted neighbor row; FromRowFunc turns it
// into CSR with a two-pass degree-count→fill build that writes straight
// into the flat arrays, never materializing a [][2]int edge list. Both
// passes run on an engine.Pool, whose spans are the build's chunks and
// which workers process independently — every array slot belongs to
// exactly one vertex, so the result is byte-identical for any worker
// count. Randomized families stay shardable by deriving per-vertex
// randomness from pure hashes of (seed, vertex) instead of a sequential
// stream; the geo family is the model, and its build hashes each
// coordinate once per chunk and pass.

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/rng"
)

// RowFunc emits vertex v's neighbor row, one neighbor at a time, in
// strictly increasing order. It must be a pure function of v (the builder
// calls it twice per vertex — once to count, once to fill — possibly from
// different goroutines), must be symmetric (u appears in v's row iff v
// appears in u's), and must emit ids in [0, n) excluding v itself.
type RowFunc func(v int, emit func(u int32))

// FromRowFunc builds a graph with n vertices from a streaming row
// function via the two-pass degree-count→fill CSR builder, on an
// engine.Pool of the given width (0 or 1 serial, engine.AutoWorkers one
// per CPU); the graph is byte-identical for every width. Capacity
// overflow surfaces as a typed *CapacityError, row-contract violations
// (unsorted, out-of-range, or self-loop neighbors) as plain errors;
// it never panics on bad input.
func FromRowFunc(n int, rows RowFunc, workers int) (*Graph, error) {
	return fromChunkRows(n, func() RowFunc { return rows }, workers)
}

// fromChunkRows is FromRowFunc for row functions that keep state across
// the rows of one chunk: a chunk is one of the pool's spans, and each
// chunk of each pass calls newRows once and asks the RowFunc it returns
// for the chunk's vertices in increasing order. The state lives and dies
// with the chunk, so the graph stays byte-identical for any worker count.
func fromChunkRows(n int, newRows func() RowFunc, workers int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, &CapacityError{Vertices: n}
	}
	pool := engine.NewPool(workers)

	// Pass 1: per-vertex degree count with contract validation. Each
	// chunk writes only its own deg slots and its Span.Index slots, so
	// scheduling order cannot influence the result.
	deg := make([]int32, n)
	errs := make([]error, pool.NumShards(n))
	maxDegs := make([]int, len(errs))
	// Each chunk builds one emit callback and resets the vertex state it
	// reads, so the build allocates per chunk, not per vertex.
	pool.Do(n, func(s engine.Span) {
		rows := newRows()
		var (
			v, d int
			prev int32
			bad  error
		)
		emit := func(u int32) {
			if bad != nil {
				return
			}
			switch {
			case int(u) == v:
				bad = fmt.Errorf("graph: RowFunc emitted self-loop at %d", v)
			case u < 0 || int(u) >= n:
				bad = fmt.Errorf("graph: RowFunc neighbor %d of %d out of range [0,%d)", u, v, n)
			case u <= prev:
				bad = fmt.Errorf("graph: RowFunc row of %d not strictly increasing at %d", v, u)
			}
			prev = u
			d++
		}
		maxDeg := 0
		for v = s.Lo; v < s.Hi; v++ {
			d, prev, bad = 0, -1, nil
			rows(v, emit)
			if bad != nil && errs[s.Index] == nil {
				errs[s.Index] = bad
			}
			deg[v] = int32(d)
			if d > maxDeg {
				maxDeg = d
			}
		}
		maxDegs[s.Index] = maxDeg
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Prefix sum in int64, then capacity check before any O(m) allocation.
	total := int64(0)
	for v := 0; v < n; v++ {
		total += int64(deg[v])
	}
	if total > maxOffset32 {
		return nil, &CapacityError{DirectedEdges: total}
	}
	off := make([]int32, n+1)
	acc := int32(0)
	for v := 0; v < n; v++ {
		acc += deg[v]
		off[v+1] = acc
	}

	g := &Graph{n: n, m: int(total / 2), off: off, nbr: make([]int32, total)}
	for _, d := range maxDegs {
		if d > g.maxDeg {
			g.maxDeg = d
		}
	}

	// Pass 2: fill. Each chunk writes the disjoint region
	// nbr[off[Lo]:off[Hi]); a RowFunc that emits different rows than in
	// pass 1 is caught by the per-vertex bounds check.
	pool.Do(n, func(s engine.Span) {
		rows := newRows()
		var pos, end int64
		emit := func(u int32) {
			if pos < end {
				g.nbr[pos] = u
				pos++
			} else {
				pos = end + 1
			}
		}
		for v := s.Lo; v < s.Hi; v++ {
			pos, end = int64(off[v]), int64(off[v+1])
			rows(v, emit)
			if pos != end && errs[s.Index] == nil {
				errs[s.Index] = fmt.Errorf("graph: RowFunc emitted different rows for %d across passes", v)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// --- Row functions for the deterministic families ---

// GridRows describes the rows×cols grid graph (vertex r*cols+c at row r,
// column c, 4-neighborhood).
func GridRows(rows, cols int) RowFunc {
	return func(v int, emit func(u int32)) {
		r, c := v/cols, v%cols
		if r > 0 {
			emit(int32(v - cols))
		}
		if c > 0 {
			emit(int32(v - 1))
		}
		if c+1 < cols {
			emit(int32(v + 1))
		}
		if r+1 < rows {
			emit(int32(v + cols))
		}
	}
}

// HypercubeRows describes the dim-dimensional hypercube on 2^dim
// vertices (u ~ v iff they differ in exactly one bit).
func HypercubeRows(dim int) RowFunc {
	return func(v int, emit func(u int32)) {
		// Set bits flipped high-to-low give the below-v neighbors in
		// increasing order; unset bits low-to-high give the above-v ones.
		for b := dim - 1; b >= 0; b-- {
			if v&(1<<uint(b)) != 0 {
				emit(int32(v ^ (1 << uint(b))))
			}
		}
		for b := 0; b < dim; b++ {
			if v&(1<<uint(b)) == 0 {
				emit(int32(v ^ (1 << uint(b))))
			}
		}
	}
}

// CompleteRows describes K_n.
func CompleteRows(n int) RowFunc {
	return func(v int, emit func(u int32)) {
		for u := 0; u < n; u++ {
			if u != v {
				emit(int32(u))
			}
		}
	}
}

// CompleteBipartiteRows describes K_{a,b} with parts {0..a-1} and
// {a..a+b-1}.
func CompleteBipartiteRows(a, b int) RowFunc {
	return func(v int, emit func(u int32)) {
		if v < a {
			for u := a; u < a+b; u++ {
				emit(int32(u))
			}
		} else {
			for u := 0; u < a; u++ {
				emit(int32(u))
			}
		}
	}
}

// HardInstanceRows describes the Lemma 14 hard instance: K_{Δ,Δ} on
// vertices 0..2Δ-1 plus n−2Δ isolated vertices.
func HardInstanceRows(n, delta int) RowFunc {
	return func(v int, emit func(u int32)) {
		switch {
		case v < delta:
			for u := delta; u < 2*delta; u++ {
				emit(int32(u))
			}
		case v < 2*delta:
			for u := 0; u < delta; u++ {
				emit(int32(u))
			}
		}
	}
}

// CycleRows describes the n-cycle (n >= 3).
func CycleRows(n int) RowFunc {
	return func(v int, emit func(u int32)) {
		a, b := (v-1+n)%n, (v+1)%n
		if a > b {
			a, b = b, a
		}
		emit(int32(a))
		emit(int32(b))
	}
}

// PathRows describes the n-vertex path.
func PathRows(n int) RowFunc {
	return func(v int, emit func(u int32)) {
		if v > 0 {
			emit(int32(v - 1))
		}
		if v+1 < n {
			emit(int32(v + 1))
		}
	}
}

// StarRows describes the star with center 0 and n−1 leaves.
func StarRows(n int) RowFunc {
	return func(v int, emit func(u int32)) {
		if v == 0 {
			for u := 1; u < n; u++ {
				emit(int32(u))
			}
		} else {
			emit(0)
		}
	}
}

// --- The geo family: a shardable random geometric graph ---

// Tags separating the two coordinate hash streams of the geo family.
const (
	geoTagX = 0x67656f2d78 // "geo-x"
	geoTagY = 0x67656f2d79 // "geo-y"
)

// geoRadius2 is the squared connection radius of the geo family. Cell
// centers sit on an integer lattice with jitter in [0, 0.4), so lattice
// neighbors are at most √(1+0.4²) ≈ 1.077 apart and diagonal ones at
// most √2·1.4 ≈ 1.456 — both under the 1.7 radius, which keeps the
// family connected for every seed while bounding the degree by the 24
// candidate cells within distance 2 in each axis.
const geoRadius2 = 1.7 * 1.7

// geoSide returns the lattice side for n vertices: the smallest s with
// s² ≥ n.
func geoSide(n int) int {
	s := int(math.Sqrt(float64(n)))
	for s*s < n {
		s++
	}
	return s
}

// geoCoord returns vertex v's position along one axis: its lattice
// coordinate plus a jitter in [0, 0.4) hashed purely from (seed, tag, v).
// Pure per-vertex hashing — no sequential rng stream — is what lets
// sharded generation produce identical graphs for any worker count. The
// conversion rounds the product, so no GOARCH fuses it into the add.
func geoCoord(seed, tag uint64, v, lattice int) float64 {
	u := float64(rng.Mix(seed, tag, uint64(v))>>11) / (1 << 53)
	return float64(lattice) + float64(0.4*u)
}

// geoBand is one chunk's ring of the five lattice rows around its
// current vertex: lattice row r's coordinates sit in slot r mod 5,
// hashed when the chunk first reads the row. A chunk asks for its
// vertices in increasing order, so it hashes each row it reads once,
// and the ring holds 5·side coordinate pairs, never one per node.
type geoBand struct {
	n, side int
	seed    uint64
	held    [5]int // the lattice row each slot holds, −1 for none
	xy      []float64
}

// lattice returns row r's slot: column c's x at 2c and y at 2c+1, for
// the columns of vertices below n.
func (b *geoBand) lattice(r int) []float64 {
	s := r % 5
	xy := b.xy[2*b.side*s : 2*b.side*(s+1)]
	if b.held[s] != r {
		b.held[s] = r
		for c, u := 0, r*b.side; c < b.side && u < b.n; c, u = c+1, u+1 {
			xy[2*c] = geoCoord(b.seed, geoTagX, u, c)
			xy[2*c+1] = geoCoord(b.seed, geoTagY, u, r)
		}
	}
	return xy
}

// row emits v's neighbors: the vertices of the ≤24 surrounding cells
// within distance 1.7, scanned in row-major order, which for side ≥ 5
// enumerates ids in increasing order.
func (b *geoBand) row(v int, emit func(u int32)) {
	side := b.side
	r, c := v/side, v%side
	here := b.lattice(r)
	x, y := here[2*c], here[2*c+1]
	for ur := max(r-2, 0); ur <= min(r+2, side-1); ur++ {
		xy := b.lattice(ur)
		for uc := max(c-2, 0); uc <= min(c+2, side-1); uc++ {
			u := ur*side + uc
			if u == v || u >= b.n {
				continue
			}
			dx := xy[2*uc] - x
			dy := xy[2*uc+1] - y
			// Rounded products: no GOARCH may fuse this edge decision.
			if float64(dx*dx)+float64(dy*dy) <= geoRadius2 {
				emit(int32(u))
			}
		}
	}
}

// GeometricCells builds the geo family graph for n ≥ 17 (lattice side
// ≥ 5): vertices on a jittered ⌈√n⌉×⌈√n⌉ lattice, connected within
// distance 1.7. It is connected for every seed, of maximum degree ≤ 24,
// and byte-identical for any worker count (FromRowFunc's convention). Each
// chunk of each build pass reads coordinates off its own geoBand.
func GeometricCells(n int, seed uint64, workers int) (*Graph, error) {
	side := geoSide(n)
	if side < 5 {
		return nil, fmt.Errorf("graph: geo family needs lattice side >= 5 (n >= 17), got n=%d", n)
	}
	return fromChunkRows(n, func() RowFunc {
		b := &geoBand{n: n, side: side, seed: seed, held: [5]int{-1, -1, -1, -1, -1}, xy: make([]float64, 10*side)}
		return b.row
	}, workers)
}
