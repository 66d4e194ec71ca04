package engine

import (
	"errors"
	"sync/atomic"
	"testing"
)

// shardedPool is NewPool with an explicit shard count in place of the
// four per worker it fixes, so the span tests reach any decomposition.
// shards <= 0 keeps NewPool's.
func shardedPool(workers, shards int) *Pool {
	p := NewPool(workers)
	if shards > 0 {
		p.shards = shards
	}
	return p
}

func TestSpansTileAndAlign(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, shards := range []int{0, 1, 3, 64} {
			p := shardedPool(workers, shards)
			for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
				spans := p.Spans(n)
				if n == 0 {
					if len(spans) != 0 {
						t.Fatalf("Spans(0) = %v", spans)
					}
					continue
				}
				at := 0
				for i, s := range spans {
					if s.Index != i {
						t.Fatalf("span %d has Index %d", i, s.Index)
					}
					if s.Lo != at {
						t.Fatalf("n=%d: span %d starts at %d, want %d", n, i, s.Lo, at)
					}
					if s.Lo%64 != 0 {
						t.Fatalf("n=%d: span %d start %d not word-aligned", n, i, s.Lo)
					}
					if s.Hi <= s.Lo {
						t.Fatalf("n=%d: empty span %v", n, s)
					}
					if s.Hi%64 != 0 && s.Hi != n {
						t.Fatalf("n=%d: interior span boundary %d not word-aligned", n, s.Hi)
					}
					at = s.Hi
				}
				if at != n {
					t.Fatalf("n=%d: spans end at %d", n, at)
				}
				if len(spans) != p.NumShards(n) {
					t.Fatalf("NumShards(%d) = %d, want %d", n, p.NumShards(n), len(spans))
				}
			}
		}
	}
}

func TestSpansIndependentOfWorkers(t *testing.T) {
	// Same shard count, different worker counts: identical decomposition.
	a := shardedPool(1, 8).Spans(1000)
	b := shardedPool(16, 8).Spans(1000)
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDoCoversEveryVertexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		const n = 517
		var hits [n]int32
		p.Do(n, func(s Span) {
			for v := s.Lo; v < s.Hi; v++ {
				atomic.AddInt32(&hits[v], 1)
			}
		})
		for v, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: vertex %d visited %d times", workers, v, h)
			}
		}
	}
}

func TestSumMatchesSerial(t *testing.T) {
	const n = 2049
	want := int64(n) * int64(n-1) / 2
	for _, workers := range []int{1, 3, 8} {
		for _, shards := range []int{1, 5, 100} {
			p := shardedPool(workers, shards)
			got := p.Sum(n, func(s Span) int64 {
				var sum int64
				for v := s.Lo; v < s.Hi; v++ {
					sum += int64(v)
				}
				return sum
			})
			if got != want {
				t.Fatalf("workers=%d shards=%d: Sum = %d, want %d", workers, shards, got, want)
			}
		}
	}
}

func TestAllDone(t *testing.T) {
	p := shardedPool(4, 6)
	done := make([]bool, 300)
	for i := range done {
		done[i] = true
	}
	if !p.AllDone(len(done), func(v int) bool { return done[v] }) {
		t.Fatal("AllDone false on all-true")
	}
	done[271] = false
	if p.AllDone(len(done), func(v int) bool { return done[v] }) {
		t.Fatal("AllDone true with a straggler")
	}
	if !p.AllDone(0, func(int) bool { return false }) {
		t.Fatal("AllDone(0) should be vacuously true")
	}
}

func TestLoopSemantics(t *testing.T) {
	p := shardedPool(2, 4)
	const n = 100
	remaining := 3 // all nodes finish after 3 steps
	done := func(int) bool { return remaining == 0 }
	steps := 0
	rounds, all, err := p.Loop(n, 10, done, func(round int) error {
		if round != steps {
			t.Fatalf("step saw round %d, want %d", round, steps)
		}
		steps++
		remaining--
		return nil
	})
	if err != nil || !all || rounds != 3 || steps != 3 {
		t.Fatalf("Loop = (%d, %v, %v), steps=%d; want (3, true, nil), 3", rounds, all, err, steps)
	}

	// Budget exhaustion without completion.
	rounds, all, err = p.Loop(n, 4, func(int) bool { return false }, func(int) error { return nil })
	if err != nil || all || rounds != 4 {
		t.Fatalf("Loop = (%d, %v, %v), want (4, false, nil)", rounds, all, err)
	}

	// A step error aborts.
	boom := errors.New("boom")
	rounds, all, err = p.Loop(n, 10, func(int) bool { return false }, func(round int) error {
		if round == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || all || rounds != 1 {
		t.Fatalf("Loop = (%d, %v, %v), want (1, false, boom)", rounds, all, err)
	}
}

func TestZeroValuePoolIsSerial(t *testing.T) {
	var p Pool
	if p.Parallel() {
		t.Fatal("zero pool should be serial")
	}
	sum := p.Sum(130, func(s Span) int64 { return int64(s.Hi - s.Lo) })
	if sum != 130 {
		t.Fatalf("zero pool Sum = %d", sum)
	}
}

// Sum runs fn over every span and returns the sum of the partial results,
// accumulated in span order: the per-span reduction the package doc
// describes, built on Do.
func (p *Pool) Sum(n int, fn func(Span) int64) int64 {
	numShards := p.NumShards(n)
	if numShards == 0 {
		return 0
	}
	parts := make([]int64, numShards)
	p.Do(n, func(s Span) {
		parts[s.Index] = fn(s)
	})
	var total int64
	for _, v := range parts {
		total += v
	}
	return total
}

// TestDoReraisesSpanPanic: a span that panics on a worker goroutine is
// re-raised on Do's caller after every worker stopped, so the caller's
// recover sees it at any worker count, and the other spans still ran.
func TestDoReraisesSpanPanic(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		const n = 64 * 24
		var ran atomic.Int64
		got := func() (v any) {
			defer func() { v = recover() }()
			p.Do(n, func(s Span) {
				if s.Index == 2 {
					panic("span 2")
				}
				ran.Add(1)
			})
			return nil
		}()
		if got != "span 2" {
			t.Fatalf("workers=%d: recovered %v, want the span's panic value", workers, got)
		}
		if spans := len(p.Spans(n)); workers > 1 && ran.Load() != int64(spans-1) {
			t.Errorf("workers=%d: %d of %d other spans ran", workers, ran.Load(), spans-1)
		}
	}
}
