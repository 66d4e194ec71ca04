// Package graph implements the network substrate of the paper: undirected
// graphs with n nodes and maximum degree Δ, whose edges represent direct
// reachability between devices (§1.1). It provides the generators used by
// the experiments — including the K_{Δ,Δ}-plus-isolated-vertices hard
// instance of Lemma 14 — together with the structural routines the
// baselines need (graph squaring and distance-2 coloring for the
// [7]/[4]-style TDMA simulation) and BFS/diameter utilities.
//
// # CSR layout
//
// Graphs are stored in compressed sparse row (CSR) form: a single flat
// []int32 neighbor array plus an n+1-entry offset table, so that vertex
// v's sorted neighbor row is nbr[off[v]:off[v+1]]. Compared to the
// per-vertex [][]int layout this removes one pointer indirection per row,
// keeps all rows contiguous in memory, and halves the footprint — which
// is what makes the simulation engines' per-round neighborhood scans
// cache-friendly at production scale. Row gives zero-copy access to a row;
// Neighbors returns a fresh []int copy for callers that prefer ints.
//
// The CSR rows also support word-parallel beep propagation:
// NeighborhoodOr computes, in one pass, the OR over every beeping vertex's
// row into a destination bitset — the hot path of one beeping round
// (listeners hear 1 iff some neighbor beeped) — instead of each listener
// scanning its neighbor list. NeighborhoodOrRange is the receiver-centric
// form whose [lo,hi) slices the deterministic sharded worker pool of
// internal/engine hands out; both forms compute the same bits.
//
// The int32 offset representation bounds graphs to about 2 billion
// directed edges, and int32 neighbor entries bound them to MaxVertices
// vertices. Exceeding either is a typed *CapacityError on every
// construction path — never a panic — so the sweep layer surfaces it as a
// scenario failure.
package graph

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

// MaxVertices is the vertex capacity of a Graph: vertex ids are int32
// CSR entries.
const MaxVertices = math.MaxInt32

// CapacityError reports a graph whose CSR arrays exceed their int32
// index width: more than 2³¹−1 directed edges, or more than MaxVertices
// vertices. Every construction path — FromEdges, FromRowFunc, Square —
// returns it instead of panicking, so callers can surface an oversized
// graph as an input error.
type CapacityError struct {
	// Vertices and DirectedEdges describe the offending graph; the zero
	// field is the one within capacity.
	Vertices      int
	DirectedEdges int64
}

func (e *CapacityError) Error() string {
	if e.Vertices != 0 {
		return fmt.Sprintf("graph: %d vertices exceed the int32 CSR id capacity", e.Vertices)
	}
	return fmt.Sprintf("graph: %d directed edges exceed the int32 CSR offset capacity", e.DirectedEdges)
}

// maxOffset32 is the int32 offset capacity. A variable, not a constant,
// so tests can exercise the overflow paths without materializing
// multi-gigabyte graphs.
var maxOffset32 int64 = math.MaxInt32

// Graph is an immutable simple undirected graph on vertices 0..n-1, stored
// in CSR (compressed sparse row) form.
type Graph struct {
	n      int
	m      int
	maxDeg int
	off    []int32 // len n+1; row v is nbr[off[v]:off[v+1]]
	nbr    []int32 // concatenated sorted neighbor rows, len 2m

	// d2once memoizes DistanceTwoColoring: the coloring is a pure
	// function of the (immutable) graph, and graph instances are shared
	// across concurrent scenario executions by the sweep layer's
	// artifact cache, so each shared graph pays the G²+greedy cost once.
	// It stays entirely lazy: engines that never schedule by color (the
	// beep-native and sparse drivers) never pay for it.
	d2once   sync.Once
	d2colors []int
	d2err    error
}

// FromEdges builds a graph with n vertices from an edge list. It rejects
// self-loops, duplicate edges, and out-of-range endpoints.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, &CapacityError{Vertices: n}
	}
	if int64(len(edges)) > maxOffset32/2 {
		return nil, &CapacityError{DirectedEdges: 2 * int64(len(edges))}
	}
	deg := make([]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		deg[u]++
		deg[v]++
	}
	g := &Graph{
		n:   n,
		m:   len(edges),
		off: make([]int32, n+1),
		nbr: make([]int32, 2*len(edges)),
	}
	for v := 0; v < n; v++ {
		g.off[v+1] = g.off[v] + deg[v]
	}
	fill := make([]int32, n)
	copy(fill, g.off[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		g.nbr[fill[u]] = int32(v)
		fill[u]++
		g.nbr[fill[v]] = int32(u)
		fill[v]++
	}
	for v := 0; v < n; v++ {
		row := g.nbr[g.off[v]:g.off[v+1]]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, row[i])
			}
		}
		if len(row) > g.maxDeg {
			g.maxDeg = len(row)
		}
	}
	return g, nil
}

// fromRows builds a graph directly from sorted, deduplicated rows (the
// internal fast path for derived graphs such as Square). Like FromEdges
// it reports int32 CSR overflow as a typed *CapacityError — the two
// construction paths share one error contract, so derived graphs that
// outgrow the representation fail a scenario instead of crashing the
// process.
func fromRows(n int, rows [][]int32, m int) (*Graph, error) {
	g := &Graph{n: n, m: m, off: make([]int32, n+1)}
	total := int64(0)
	for _, row := range rows {
		total += int64(len(row))
	}
	if total > maxOffset32 {
		return nil, &CapacityError{DirectedEdges: total}
	}
	g.nbr = make([]int32, 0, total)
	for v := 0; v < n; v++ {
		g.nbr = append(g.nbr, rows[v]...)
		g.off[v+1] = int32(len(g.nbr))
		if len(rows[v]) > g.maxDeg {
			g.maxDeg = len(rows[v])
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error, for tests and
// generators with inputs known to be valid.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// Bytes returns the CSR memory footprint in bytes (neighbor array plus
// offset table) — the number the sweep layer's graph-bytes gauge reports
// when sizing large-n runs.
func (g *Graph) Bytes() int64 {
	return int64(len(g.nbr))*4 + int64(len(g.off))*4
}

// MaxDegree returns Δ, the maximum degree (cached at construction; the
// simulators read it per node per run). It is 0 for edgeless graphs.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Row returns v's sorted neighbor row as a zero-copy slice of the CSR
// neighbor array. The slice aliases the graph and must not be modified.
// This is the accessor the engines' hot loops use.
func (g *Graph) Row(v int) []int32 {
	return g.nbr[g.off[v]:g.off[v+1]]
}

// Neighbors returns the sorted neighbor list of v as a freshly allocated
// []int. Setup and verification code may use it freely; per-round loops
// should prefer Row, which does not allocate.
func (g *Graph) Neighbors(v int) []int {
	row := g.Row(v)
	out := make([]int, len(row))
	for i, u := range row {
		out[i] = int(u)
	}
	return out
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, found := slices.BinarySearch(g.Row(u), int32(v))
	return found
}

// Edges returns all edges with u < v, in lexicographic order. It
// materializes an O(m) slice; callers that only iterate should use
// EdgesSeq, which streams the same edges straight off the CSR rows.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, v := range g.EdgesSeq() {
		out = append(out, [2]int{u, v})
	}
	return out
}

// EdgesSeq returns an iterator over all edges (u, v) with u < v, in
// lexicographic order — the streaming form of Edges, allocating nothing.
func (g *Graph) EdgesSeq() iter.Seq2[int, int] {
	return func(yield func(u, v int) bool) {
		for u := 0; u < g.n; u++ {
			for _, v := range g.Row(u) {
				if int32(u) < v && !yield(u, int(v)) {
					return
				}
			}
		}
	}
}

// BFS returns the hop distances from root, -1 for unreachable
// vertices. Distances and the queue are int32, as vertex IDs are: one
// call allocates 8 bytes per vertex.
func (g *Graph) BFS(root int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := make([]int32, 1, g.n)
	queue[0] = int32(root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Row(int(u)) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the maximum eccentricity over connected vertex pairs
// (ignoring unreachable pairs), or 0 for edgeless graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFS(v) {
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}

// NeighborhoodOr ORs, over every vertex u whose bit is set in src, u's
// neighbor row into dst: afterwards dst has bit v set iff some neighbor of
// v is set in src (dst's prior bits are kept, so callers wanting exactly
// the open neighborhood should pass a zeroed dst). This is one beeping
// round's propagation — src is "who beeped", dst is "who hears" — done as
// one pass over the CSR rows of the beeping vertices instead of a
// per-listener neighbor scan.
//
// When src is dense the sender-centric pass would touch Θ(2m) entries
// while most listeners are settled by their first few neighbors, so the
// routine switches to the receiver-centric early-exit scan; both forms
// compute identical bits. Panics if src or dst length differs from n.
func (g *Graph) NeighborhoodOr(src, dst *bitstring.BitString) {
	if src.Len() != g.n || dst.Len() != g.n {
		panic(fmt.Sprintf("graph: NeighborhoodOr bitset lengths %d,%d for n=%d", src.Len(), dst.Len(), g.n))
	}
	if g.DenseBeepers(src) {
		g.NeighborhoodOrRange(src, dst, 0, g.n)
		return
	}
	dw := dst.Words()
	for wi, w := range src.Words() {
		for w != 0 {
			u := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			for _, v := range g.Row(u) {
				dw[v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
}

// DenseBeepers reports whether src is dense enough that receiver-centric
// early-exit scans beat the sender-centric pass over the beepers' rows —
// the heuristic NeighborhoodOr applies internally, exported so callers
// staging their own parallel propagation (internal/beep) pick the same
// side.
func (g *Graph) DenseBeepers(src *bitstring.BitString) bool {
	return 4*src.Ones() > g.n
}

// NeighborhoodOrRange is the receiver-centric form of NeighborhoodOr
// restricted to listeners in [lo, hi): it sets dst's bit for each v in the
// range with a src-set neighbor, touching no other bits of dst. Distinct
// word-aligned ranges may therefore run concurrently on one dst (the
// sharded execution of internal/engine); the union over a partition of
// [0, n) equals a full NeighborhoodOr.
func (g *Graph) NeighborhoodOrRange(src, dst *bitstring.BitString, lo, hi int) {
	if src.Len() != g.n || dst.Len() != g.n {
		panic(fmt.Sprintf("graph: NeighborhoodOrRange bitset lengths %d,%d for n=%d", src.Len(), dst.Len(), g.n))
	}
	sw := src.Words()
	for v := lo; v < hi; v++ {
		for _, u := range g.Row(v) {
			if sw[u>>6]&(1<<(uint(u)&63)) != 0 {
				dst.Set(v)
				break
			}
		}
	}
}

// NeighborhoodOrFrontier is the sender-centric NeighborhoodOr with the
// active-frontier update fused in: alongside ORing every src vertex's row
// into dst, it records each dst word it dirtied in sum — a second-level
// bitset with one bit per dst word (bit w of sum word w>>6 covers dst
// words [64w, 64w+64)). Sparse engines keep such a summary over the
// reception window so subsequent passes skip quiescent spans entirely
// instead of scanning all of dst. sum must have at least
// (dst.Words()+63)/64 entries; bits already set in sum are kept. The dst
// bits written are exactly NeighborhoodOr's — the fusion only adds the
// summary bookkeeping to the same pass.
func (g *Graph) NeighborhoodOrFrontier(src, dst *bitstring.BitString, sum []uint64) {
	if src.Len() != g.n || dst.Len() != g.n {
		panic(fmt.Sprintf("graph: NeighborhoodOrFrontier bitset lengths %d,%d for n=%d", src.Len(), dst.Len(), g.n))
	}
	dw := dst.Words()
	for wi, w := range src.Words() {
		for w != 0 {
			u := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			for _, v := range g.Row(u) {
				wv := v >> 6
				dw[wv] |= 1 << (uint(v) & 63)
				sum[wv>>6] |= 1 << (uint(wv) & 63)
			}
		}
	}
}

// Square returns G²: the graph on the same vertices where u,v are adjacent
// iff their distance in g is 1 or 2. It is the structure the prior-work
// baselines color to schedule conflict-free transmissions (§1.4).
// It returns a *CapacityError (via fromRows) if G² exceeds the CSR int32
// capacity of about 2 billion directed edges.
func (g *Graph) Square() (*Graph, error) {
	rows := make([][]int32, g.n)
	seen := make([]int, g.n)
	for i := range seen {
		seen[i] = -1
	}
	m := 0
	for u := 0; u < g.n; u++ {
		var list []int32
		add := func(w int32) {
			if int(w) != u && seen[w] != u {
				seen[w] = u
				list = append(list, w)
			}
		}
		for _, v := range g.Row(u) {
			add(v)
			for _, w := range g.Row(int(v)) {
				add(w)
			}
		}
		slices.Sort(list)
		rows[u] = list
		m += len(list)
	}
	return fromRows(g.n, rows, m/2)
}

// GreedyColoring colors the graph greedily in the given vertex order,
// assigning each vertex the smallest color unused by its already-colored
// neighbors. It returns one color in [0, maxUsed] per vertex and uses at
// most Δ+1 colors. If order is nil, vertices are processed in decreasing
// degree order (which tends to use fewer colors).
func (g *Graph) GreedyColoring(order []int) []int {
	if order == nil {
		order = make([]int, g.n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return g.Degree(order[i]) > g.Degree(order[j])
		})
	}
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	taken := make([]int, g.n+1)
	for i := range taken {
		taken[i] = -1
	}
	for _, v := range order {
		for _, u := range g.Row(v) {
			if colors[u] >= 0 {
				taken[colors[u]] = v
			}
		}
		c := 0
		for taken[c] == v {
			c++
		}
		colors[v] = c
	}
	return colors
}

// DistanceTwoColoring returns a proper coloring of G² (no two vertices
// within distance 2 share a color), the setup structure of the baseline
// simulations. The number of colors used is at most Δ²+1. The result is
// computed once per graph instance (it is deterministic, and callers
// must not mutate it) and shared by every subsequent call, including
// concurrent ones. It fails with a *CapacityError when G² overflows the
// CSR representation — large sparse graphs whose square is still huge.
func (g *Graph) DistanceTwoColoring() ([]int, error) {
	g.d2once.Do(func() {
		sq, err := g.Square()
		if err != nil {
			g.d2err = err
			return
		}
		g.d2colors = sq.GreedyColoring(nil)
	})
	return g.d2colors, g.d2err
}

// NumColors returns the number of distinct colors in a coloring (max+1).
func NumColors(colors []int) int {
	max := -1
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// --- Generators ---
//
// The deterministic families delegate to the streaming row functions of
// stream.go through the serial two-pass builder; these wrappers keep the
// historical convenience signatures (and their panic-on-misuse contract)
// while large-n callers use FromRowFunc directly with worker counts.

// mustBuild is the serial FromRowFunc for generators whose inputs are
// valid by construction; it panics on the (impossible) builder error.
func mustBuild(n int, rows RowFunc) *Graph {
	g, err := FromRowFunc(n, rows, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph { return mustBuild(n, CompleteRows(n)) }

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	return mustBuild(a+b, CompleteBipartiteRows(a, b))
}

// HardInstance returns the Lemma 14 / Theorem 22 hard graph: K_{Δ,Δ} on
// vertices 0..2Δ-1 (left part 0..Δ-1, right part Δ..2Δ-1) plus n-2Δ
// isolated vertices, so the graph has n vertices and maximum degree Δ.
func HardInstance(n, delta int) (*Graph, error) {
	if delta < 1 || 2*delta > n {
		return nil, fmt.Errorf("graph: hard instance needs 1 <= Δ and 2Δ <= n, got n=%d Δ=%d", n, delta)
	}
	return FromRowFunc(n, HardInstanceRows(n, delta), 1)
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph { return mustBuild(n, CycleRows(n)) }

// Path returns the n-vertex path.
func Path(n int) *Graph { return mustBuild(n, PathRows(n)) }

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph { return mustBuild(n, StarRows(n)) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	return mustBuild(rows*cols, GridRows(rows, cols))
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
func Hypercube(dim int) *Graph {
	return mustBuild(1<<uint(dim), HypercubeRows(dim))
}

// RandomRegular returns a random d-regular graph on n vertices via the
// configuration (pairing) model with edge-swap repair: stubs are paired
// uniformly, then self-loops and multi-edges are eliminated by swapping
// endpoints with random other pairs (whole-graph rejection would succeed
// with probability only ≈ e^{-d²/4}). n*d must be even and d < n.
func RandomRegular(n, d int, r *rng.Stream) (*Graph, error) {
	if d < 0 || d >= n || n*d%2 != 0 {
		return nil, fmt.Errorf("graph: random regular needs 0 <= d < n and even n*d, got n=%d d=%d", n, d)
	}
	if d == 0 {
		return FromEdges(n, nil)
	}
	const maxAttempts = 50
	stubs := make([]int, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs := make([][2]int, 0, n*d/2)
		for i := 0; i < len(stubs); i += 2 {
			pairs = append(pairs, [2]int{stubs[i], stubs[i+1]})
		}
		if repairPairing(pairs, r) {
			edges := make([][2]int, len(pairs))
			copy(edges, pairs)
			return FromEdges(n, edges)
		}
	}
	return nil, fmt.Errorf("graph: random regular (n=%d, d=%d) failed after %d attempts", n, d, maxAttempts)
}

// repairPairing removes self-loops and duplicate edges from a stub pairing
// by swapping endpoints with uniformly chosen other pairs. It reports
// whether the pairing became simple within the repair budget.
func repairPairing(pairs [][2]int, r *rng.Stream) bool {
	key := func(p [2]int) [2]int {
		if p[0] > p[1] {
			return [2]int{p[1], p[0]}
		}
		return p
	}
	budget := 200 * len(pairs)
	for round := 0; round < budget; round++ {
		counts := make(map[[2]int]int, len(pairs))
		for _, p := range pairs {
			counts[key(p)]++
		}
		bad := -1
		for i, p := range pairs {
			if p[0] == p[1] || counts[key(p)] > 1 {
				bad = i
				break
			}
		}
		if bad == -1 {
			return true
		}
		j := r.Intn(len(pairs))
		if j == bad {
			continue
		}
		pairs[bad][1], pairs[j][1] = pairs[j][1], pairs[bad][1]
	}
	return false
}

// ProjectivePlaneIncidence returns the point–line incidence graph of the
// projective plane PG(2,q) for prime q: vertices 0..q²+q are the points,
// vertices q²+q+1..2(q²+q)+1 are the lines, and a point is adjacent to the
// lines containing it. The graph is (q+1)-regular with n = 2(q²+q+1) and
// girth 6 — and since any two points share a line and any two lines share
// a point, the points form a clique in G² and so do the lines. It is
// therefore a worst case for distance-2-coloring TDMA baselines:
// χ(G²) ≥ q²+q+1 = Θ(Δ²) = Θ(n), realizing the paper's min{n, Δ²}
// overhead factor.
func ProjectivePlaneIncidence(q int) (*Graph, error) {
	if q < 2 || !isPrime(q) {
		return nil, fmt.Errorf("graph: projective plane order %d must be prime", q)
	}
	// Normalized homogeneous coordinates over F_q: (1,y,z), (0,1,z), (0,0,1).
	var coords [][3]int
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			coords = append(coords, [3]int{1, y, z})
		}
	}
	for z := 0; z < q; z++ {
		coords = append(coords, [3]int{0, 1, z})
	}
	coords = append(coords, [3]int{0, 0, 1})

	m := len(coords) // q²+q+1
	var edges [][2]int
	for p := 0; p < m; p++ {
		for l := 0; l < m; l++ {
			dot := coords[p][0]*coords[l][0] + coords[p][1]*coords[l][1] + coords[p][2]*coords[l][2]
			if dot%q == 0 {
				edges = append(edges, [2]int{p, m + l})
			}
		}
	}
	return FromEdges(2*m, edges)
}

// isPrime is a local trial-division primality check.
func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// RandomBoundedDegree returns a random graph where each candidate edge of
// G(n,p) is kept only if it respects the degree cap maxDeg at both
// endpoints. The result always has maximum degree <= maxDeg.
func RandomBoundedDegree(n, maxDeg int, p float64, r *rng.Stream) *Graph {
	deg := make([]int, n)
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if deg[u] < maxDeg && deg[v] < maxDeg && r.Bool(p) {
				deg[u]++
				deg[v]++
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return MustFromEdges(n, edges)
}
