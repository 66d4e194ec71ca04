package engine

import (
	"sync"
	"testing"
)

// TestDoMaskedFiltersSpans checks the predicate contract: fn sees exactly
// the admitted spans, Span.Index still refers to the full decomposition,
// and serial and parallel pools admit the identical set.
func TestDoMaskedFiltersSpans(t *testing.T) {
	const n = 64 * 40
	collect := func(workers int, active func(lo, hi int) bool) map[int][2]int {
		p := shardedPool(workers, 8)
		var mu sync.Mutex
		got := map[int][2]int{}
		p.DoMasked(n, active, func(s Span) {
			mu.Lock()
			got[s.Index] = [2]int{s.Lo, s.Hi}
			mu.Unlock()
		})
		return got
	}
	preds := map[string]func(lo, hi int) bool{
		"none": func(lo, hi int) bool { return false },
		"all":  func(lo, hi int) bool { return true },
		"even": func(lo, hi int) bool { return (lo/64)%2 == 0 },
		"one":  func(lo, hi int) bool { return lo <= 1000 && 1000 < hi },
	}
	for name, pred := range preds {
		serial := collect(1, pred)
		parallel := collect(4, pred)
		if len(serial) != len(parallel) {
			t.Fatalf("%s: serial admitted %d spans, parallel %d", name, len(serial), len(parallel))
		}
		for idx, rng := range serial {
			if parallel[idx] != rng {
				t.Fatalf("%s: span %d differs: %v vs %v", name, idx, rng, parallel[idx])
			}
		}
		// Cross-check against Do over the full decomposition.
		full := map[int][2]int{}
		shardedPool(1, 8).Do(n, func(s Span) {
			if pred(s.Lo, s.Hi) {
				full[s.Index] = [2]int{s.Lo, s.Hi}
			}
		})
		if len(full) != len(serial) {
			t.Fatalf("%s: DoMasked admitted %d spans, Do-filtered %d", name, len(serial), len(full))
		}
		for idx, rng := range full {
			if serial[idx] != rng {
				t.Fatalf("%s: span %d: DoMasked %v vs Do %v", name, idx, serial[idx], rng)
			}
		}
	}
}

// TestDoMaskedCoversAllVertices runs a per-vertex write under an all-pass
// mask and checks full coverage, serial vs parallel.
func TestDoMaskedCoversAllVertices(t *testing.T) {
	const n = 64*7 + 13
	for _, workers := range []int{1, 3, AutoWorkers} {
		p := NewPool(workers)
		seen := make([]int, n)
		p.DoMasked(n, func(lo, hi int) bool { return true }, func(s Span) {
			for v := s.Lo; v < s.Hi; v++ {
				seen[v]++
			}
		})
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: vertex %d visited %d times", workers, v, c)
			}
		}
	}
}

// TestDoMaskedConcurrentCallsShareOnePool runs DoMasked from several
// goroutines at once on one pool, serial and parallel, each call with its
// own predicate: every call must see exactly its own admitted spans,
// whichever call holds the pool's reusable span list. Run it under -race.
func TestDoMaskedConcurrentCallsShareOnePool(t *testing.T) {
	const n, callers, calls = 64 * 40, 4, 50
	for _, workers := range []int{1, 3} {
		p := shardedPool(workers, 8)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					stride := (c+i)%3 + 1
					active := func(lo, hi int) bool { return (lo/64)%stride == 0 }
					var mu sync.Mutex
					got := 0
					p.DoMasked(n, active, func(s Span) {
						if !active(s.Lo, s.Hi) {
							t.Errorf("workers=%d caller %d: span %d not admitted by its predicate", workers, c, s.Index)
						}
						mu.Lock()
						got++
						mu.Unlock()
					})
					want := 0
					for _, s := range p.Spans(n) {
						if active(s.Lo, s.Hi) {
							want++
						}
					}
					if got != want {
						t.Errorf("workers=%d caller %d: %d spans ran, want %d", workers, c, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}
