package graph

// Graph helpers only this package's tests use.

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// CompleteBinaryTree returns a complete binary tree on n vertices with
// root 0 (vertex v has children 2v+1 and 2v+2 when present).
func CompleteBinaryTree(n int) *Graph {
	return mustBuild(n, CompleteBinaryTreeRows(n))
}

// CompleteBinaryTreeRows describes the complete binary tree on n vertices
// rooted at 0 (children of v are 2v+1 and 2v+2).
func CompleteBinaryTreeRows(n int) RowFunc {
	return func(v int, emit func(u int32)) {
		if v > 0 {
			emit(int32((v - 1) / 2))
		}
		if 2*v+1 < n {
			emit(int32(2*v + 1))
		}
		if 2*v+2 < n {
			emit(int32(2*v + 2))
		}
	}
}

// GeoRows describes the geo family for n ≥ 17 as a pure RowFunc that
// hashes every coordinate it reads: the reference GeometricCells's
// banded build is pinned against.
func GeoRows(n int, seed uint64) RowFunc {
	side := geoSide(n)
	return func(v int, emit func(u int32)) {
		r, c := v/side, v%side
		x := geoCoord(seed, geoTagX, v, c)
		y := geoCoord(seed, geoTagY, v, r)
		for dr := -2; dr <= 2; dr++ {
			ur := r + dr
			if ur < 0 || ur >= side {
				continue
			}
			for dc := -2; dc <= 2; dc++ {
				uc := c + dc
				if uc < 0 || uc >= side {
					continue
				}
				u := ur*side + uc
				if u == v || u >= n {
					continue
				}
				dx := geoCoord(seed, geoTagX, u, uc) - x
				dy := geoCoord(seed, geoTagY, u, ur) - y
				if dx*dx+dy*dy <= geoRadius2 {
					emit(int32(u))
				}
			}
		}
	}
}
