package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitstring"
	"repro/internal/rng"
)

func TestFromEdgesValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		edges   [][2]int
		wantErr bool
	}{
		{name: "empty", n: 0},
		{name: "triangle", n: 3, edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},
		{name: "self loop", n: 2, edges: [][2]int{{0, 0}}, wantErr: true},
		{name: "duplicate", n: 2, edges: [][2]int{{0, 1}, {1, 0}}, wantErr: true},
		{name: "out of range", n: 2, edges: [][2]int{{0, 2}}, wantErr: true},
		{name: "negative n", n: -1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := FromEdges(tt.n, tt.edges)
			if (err != nil) != tt.wantErr {
				t.Errorf("FromEdges err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBasicAccessors(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {2, 3}})
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N,M = %d,%d, want 4,3", g.N(), g.M())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 1 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(3))
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(1, 2) {
		t.Error("HasEdge wrong")
	}
	want := []int{1, 2}
	got := g.Neighbors(0)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
	edges := g.Edges()
	if len(edges) != 3 {
		t.Errorf("Edges() returned %d edges", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not in canonical order", e)
		}
	}
}

func TestHandshakeLemma(t *testing.T) {
	r := rng.New(1)
	g := RandomBoundedDegree(50, 6, 0.2, r)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Errorf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != int32(v) {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if mid := g.BFS(2); mid[0] != 2 || mid[2] != 0 || mid[4] != 2 {
		t.Errorf("distances from the middle wrong: %v", mid)
	}
	if g.Diameter() != 4 {
		t.Errorf("Diameter = %d, want 4", g.Diameter())
	}

	// Disconnected: unreachable gets -1.
	h := MustFromEdges(3, [][2]int{{0, 1}})
	dist = h.BFS(0)
	if dist[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", dist[2])
	}
	if h.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if !Path(4).Connected() {
		t.Error("path reported disconnected")
	}
}

func TestDiameterKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "K5", g: Complete(5), want: 1},
		{name: "C6", g: Cycle(6), want: 3},
		{name: "C7", g: Cycle(7), want: 3},
		{name: "Q3", g: Hypercube(3), want: 3},
		{name: "grid3x4", g: Grid(3, 4), want: 5},
		{name: "star10", g: Star(10), want: 2},
	}
	for _, tt := range tests {
		if got := tt.g.Diameter(); got != tt.want {
			t.Errorf("%s: Diameter = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestSquare(t *testing.T) {
	// Path 0-1-2-3: square adds {0,2},{1,3}.
	g, err := Path(4).Square()
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	if g.M() != len(wantEdges) {
		t.Fatalf("square has %d edges, want %d: %v", g.M(), len(wantEdges), g.Edges())
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("square missing edge %v", e)
		}
	}
}

func TestSquareOfCompleteIsComplete(t *testing.T) {
	g, err := Complete(6).Square()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 15 {
		t.Errorf("K6² has %d edges, want 15", g.M())
	}
}

func TestGreedyColoringProper(t *testing.T) {
	r := rng.New(2)
	g := RandomBoundedDegree(60, 8, 0.15, r)
	colors := g.GreedyColoring(nil)
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			t.Fatalf("edge %v monochromatic (color %d)", e, colors[e[0]])
		}
	}
	if nc := NumColors(colors); nc > g.MaxDegree()+1 {
		t.Errorf("greedy used %d colors, exceeds Δ+1 = %d", nc, g.MaxDegree()+1)
	}
}

func TestDistanceTwoColoringProper(t *testing.T) {
	r := rng.New(3)
	g := RandomBoundedDegree(60, 5, 0.1, r)
	colors, err := g.DistanceTwoColoring()
	if err != nil {
		t.Fatal(err)
	}
	// No two vertices at distance <= 2 share a color.
	for v := 0; v < g.N(); v++ {
		dist := g.BFS(v)
		for u := 0; u < g.N(); u++ {
			if u != v && dist[u] >= 1 && dist[u] <= 2 && colors[u] == colors[v] {
				t.Fatalf("vertices %d,%d at distance %d share color %d", v, u, dist[u], colors[v])
			}
		}
	}
	delta := g.MaxDegree()
	if nc := NumColors(colors); nc > delta*delta+1 {
		t.Errorf("distance-2 coloring used %d colors, exceeds Δ²+1 = %d", nc, delta*delta+1)
	}
}

func TestHardInstance(t *testing.T) {
	g, err := HardInstance(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.M() != 16 {
		t.Fatalf("hard instance N,M = %d,%d, want 20,16", g.N(), g.M())
	}
	if g.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d, want 4", g.MaxDegree())
	}
	// Left part connects to all of right part, nothing else.
	for u := 0; u < 4; u++ {
		for v := 4; v < 8; v++ {
			if !g.HasEdge(u, v) {
				t.Errorf("missing bipartite edge (%d,%d)", u, v)
			}
		}
	}
	for v := 8; v < 20; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d should be isolated", v)
		}
	}
	if _, err := HardInstance(5, 3); err == nil {
		t.Error("HardInstance(5,3) should fail (2Δ > n)")
	}
	if _, err := HardInstance(5, 0); err == nil {
		t.Error("HardInstance(5,0) should fail")
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		wantN      int
		wantM      int
		wantMaxDeg int
	}{
		{name: "complete", g: Complete(5), wantN: 5, wantM: 10, wantMaxDeg: 4},
		{name: "bipartite", g: CompleteBipartite(3, 4), wantN: 7, wantM: 12, wantMaxDeg: 4},
		{name: "cycle", g: Cycle(8), wantN: 8, wantM: 8, wantMaxDeg: 2},
		{name: "path", g: Path(8), wantN: 8, wantM: 7, wantMaxDeg: 2},
		{name: "star", g: Star(9), wantN: 9, wantM: 8, wantMaxDeg: 8},
		{name: "grid", g: Grid(3, 5), wantN: 15, wantM: 22, wantMaxDeg: 4},
		{name: "hypercube", g: Hypercube(4), wantN: 16, wantM: 32, wantMaxDeg: 4},
		{name: "tree", g: CompleteBinaryTree(7), wantN: 7, wantM: 6, wantMaxDeg: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", tt.g.N(), tt.wantN)
			}
			if tt.g.M() != tt.wantM {
				t.Errorf("M = %d, want %d", tt.g.M(), tt.wantM)
			}
			if tt.g.MaxDegree() != tt.wantMaxDeg {
				t.Errorf("MaxDegree = %d, want %d", tt.g.MaxDegree(), tt.wantMaxDeg)
			}
		})
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(4)
	for _, tc := range []struct{ n, d int }{{n: 10, d: 3}, {n: 20, d: 4}, {n: 8, d: 0}} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): degree(%d) = %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Error("odd n*d should fail")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Error("d >= n should fail")
	}
}

func TestRandomBoundedDegreeRespectsCap(t *testing.T) {
	r := rng.New(5)
	g := RandomBoundedDegree(100, 4, 0.5, r)
	if g.MaxDegree() > 4 {
		t.Errorf("degree cap violated: %d", g.MaxDegree())
	}
	if g.M() == 0 {
		t.Error("expected some edges at p=0.5")
	}
}

func TestPropertyNeighborsSortedAndSymmetric(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%40) + 2
		d := int(dRaw%5) + 1
		g := RandomBoundedDegree(n, d, 0.3, rng.New(seed))
		for v := 0; v < g.N(); v++ {
			prev := -1
			for _, u := range g.Neighbors(v) {
				if u <= prev || !g.HasEdge(u, v) {
					return false
				}
				prev = u
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySquareContainsOriginal(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		g := RandomBoundedDegree(n, 4, 0.3, rng.New(seed))
		sq, err := g.Square()
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if !sq.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySquareMatchesBFS(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := RandomBoundedDegree(n, 4, 0.3, rng.New(seed))
		sq, err := g.Square()
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			dist := g.BFS(v)
			for u := 0; u < n; u++ {
				if u == v {
					continue
				}
				within2 := dist[u] == 1 || dist[u] == 2
				if within2 != sq.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSquare(b *testing.B) {
	g := RandomBoundedDegree(500, 10, 0.05, rng.New(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Square()
	}
}

func BenchmarkDistanceTwoColoring(b *testing.B) {
	g := RandomBoundedDegree(500, 10, 0.05, rng.New(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.DistanceTwoColoring()
	}
}

func TestRandomRegularHighDegree(t *testing.T) {
	// d >= 6 is where whole-graph rejection sampling fails; the edge-swap
	// repair must handle it.
	r := rng.New(44)
	for _, tc := range []struct{ n, d int }{{n: 32, d: 8}, {n: 64, d: 8}, {n: 48, d: 16}} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): degree(%d) = %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
}

func TestProjectivePlaneIncidence(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7} {
		g, err := ProjectivePlaneIncidence(q)
		if err != nil {
			t.Fatalf("PG(2,%d): %v", q, err)
		}
		m := q*q + q + 1
		if g.N() != 2*m {
			t.Fatalf("PG(2,%d): n = %d, want %d", q, g.N(), 2*m)
		}
		// (q+1)-regular.
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != q+1 {
				t.Fatalf("PG(2,%d): degree(%d) = %d, want %d", q, v, g.Degree(v), q+1)
			}
		}
		// Girth 6: two points share exactly one line (no 4-cycles).
		for p1 := 0; p1 < m; p1++ {
			for p2 := p1 + 1; p2 < m; p2++ {
				common := 0
				for _, l := range g.Neighbors(p1) {
					if g.HasEdge(p2, l) {
						common++
					}
				}
				if common != 1 {
					t.Fatalf("PG(2,%d): points %d,%d share %d lines, want 1", q, p1, p2, common)
				}
			}
		}
		// The points form a clique in G² (any two points share a line), so
		// χ(G²) ≥ m = Θ(Δ²) — the worst case for distance-2 coloring.
		if q <= 3 {
			sq, err := g.Square()
			if err != nil {
				t.Fatal(err)
			}
			for p1 := 0; p1 < m; p1++ {
				for p2 := p1 + 1; p2 < m; p2++ {
					if !sq.HasEdge(p1, p2) {
						t.Fatalf("PG(2,%d): points %d,%d not adjacent in G²", q, p1, p2)
					}
					if !sq.HasEdge(m+p1, m+p2) {
						t.Fatalf("PG(2,%d): lines %d,%d not adjacent in G²", q, p1, p2)
					}
				}
			}
			d2, err := g.DistanceTwoColoring()
			if err != nil {
				t.Fatal(err)
			}
			if nc := NumColors(d2); nc < m {
				t.Errorf("PG(2,%d): distance-2 coloring used %d colors, want ≥ %d", q, nc, m)
			}
		}
	}
	if _, err := ProjectivePlaneIncidence(4); err == nil {
		t.Error("composite order accepted")
	}
	if _, err := ProjectivePlaneIncidence(1); err == nil {
		t.Error("order 1 accepted")
	}
}

// --- CSR layout tests ---

// edgeListRef is the naive [][]int adjacency reference the CSR layout is
// checked against.
type edgeListRef struct {
	n   int
	adj [][]int
}

func newEdgeListRef(n int, edges [][2]int) *edgeListRef {
	r := &edgeListRef{n: n, adj: make([][]int, n)}
	for _, e := range edges {
		r.adj[e[0]] = append(r.adj[e[0]], e[1])
		r.adj[e[1]] = append(r.adj[e[1]], e[0])
	}
	for v := range r.adj {
		sort.Ints(r.adj[v])
	}
	return r
}

func (r *edgeListRef) hasEdge(u, v int) bool {
	for _, w := range r.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// randomEdges draws a simple random edge set on n vertices.
func randomEdges(n int, p float64, r *rng.Stream) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// TestPropertyCSRMatchesEdgeList: for random graphs, every accessor of the
// CSR representation agrees with the naive edge-list adjacency.
func TestPropertyCSRMatchesEdgeList(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(80)
		edges := randomEdges(n, 0.1+0.3*r.Float64(), r)
		g := MustFromEdges(n, edges)
		ref := newEdgeListRef(n, edges)

		if g.N() != n || g.M() != len(edges) {
			t.Fatalf("trial %d: N/M = %d/%d, want %d/%d", trial, g.N(), g.M(), n, len(edges))
		}
		totalDeg := 0
		for v := 0; v < n; v++ {
			totalDeg += g.Degree(v)
			if g.Degree(v) != len(ref.adj[v]) {
				t.Fatalf("trial %d: Degree(%d) = %d, want %d", trial, v, g.Degree(v), len(ref.adj[v]))
			}
			nb := g.Neighbors(v)
			row := g.Row(v)
			if len(nb) != len(ref.adj[v]) || len(row) != len(ref.adj[v]) {
				t.Fatalf("trial %d: row lengths differ at %d", trial, v)
			}
			for i := range nb {
				if nb[i] != ref.adj[v][i] || int(row[i]) != ref.adj[v][i] {
					t.Fatalf("trial %d: neighbors of %d = %v / %v, want %v", trial, v, nb, row, ref.adj[v])
				}
			}
		}
		if totalDeg != 2*g.M() {
			t.Fatalf("trial %d: handshake violated: %d vs 2·%d", trial, totalDeg, g.M())
		}
		for probe := 0; probe < 100; probe++ {
			u, v := r.Intn(n), r.Intn(n)
			if g.HasEdge(u, v) != ref.hasEdge(u, v) {
				t.Fatalf("trial %d: HasEdge(%d,%d) = %v disagrees with reference", trial, u, v, g.HasEdge(u, v))
			}
		}
		back := g.Edges()
		if len(back) != len(edges) {
			t.Fatalf("trial %d: Edges() has %d entries, want %d", trial, len(back), len(edges))
		}
		for _, e := range back {
			if !ref.hasEdge(e[0], e[1]) || e[0] >= e[1] {
				t.Fatalf("trial %d: bogus edge %v", trial, e)
			}
		}
	}
}

// TestNeighborhoodOrMatchesNaive: the word-parallel propagation (both the
// sender-centric and the receiver-centric ranged form) must equal the
// per-listener neighbor scan for random graphs and random beep vectors of
// every density (exercising the adaptive switch).
func TestNeighborhoodOrMatchesNaive(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(200)
		g := MustFromEdges(n, randomEdges(n, 0.05+0.2*r.Float64(), r))
		for _, density := range []float64{0, 0.02, 0.3, 0.9, 1} {
			src := bitstring.New(n)
			for v := 0; v < n; v++ {
				if r.Bool(density) {
					src.Set(v)
				}
			}
			want := bitstring.New(n)
			for v := 0; v < n; v++ {
				for _, u := range g.Neighbors(v) {
					if src.Get(u) {
						want.Set(v)
						break
					}
				}
			}
			got := bitstring.New(n)
			g.NeighborhoodOr(src, got)
			if !got.Equal(want) {
				t.Fatalf("trial %d density %v: NeighborhoodOr differs from naive scan", trial, density)
			}
			// Ranged form over an arbitrary word-aligned partition.
			ranged := bitstring.New(n)
			for lo := 0; lo < n; lo += 64 {
				hi := lo + 64
				if hi > n {
					hi = n
				}
				g.NeighborhoodOrRange(src, ranged, lo, hi)
			}
			if !ranged.Equal(want) {
				t.Fatalf("trial %d density %v: NeighborhoodOrRange differs from naive scan", trial, density)
			}
		}
	}
}

// TestNeighborhoodOrPreservesDst: propagation ORs into dst, never clears.
func TestNeighborhoodOrPreservesDst(t *testing.T) {
	g := Path(5)
	src := bitstring.New(5)
	dst := bitstring.New(5)
	dst.Set(4) // pre-existing bit, no beeping neighbors
	g.NeighborhoodOr(src, dst)
	if !dst.Get(4) || dst.Ones() != 1 {
		t.Fatalf("dst = %v, want bit 4 only", dst)
	}
}
