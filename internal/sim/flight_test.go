package sim

import (
	"runtime"
	"sync"
	"testing"
)

// TestFlightGroupDedupes: N concurrent Begin calls on one key make
// exactly one owner; every other caller joins and Waits for the owner's
// value.
func TestFlightGroupDedupes(t *testing.T) {
	var g FlightGroup[string, int]
	owner, isOwner := g.Begin("k") // hold the flight open until all callers joined

	const waiters = 8
	var wg sync.WaitGroup
	vals := make([]int, waiters)
	owners := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, own := g.Begin("k")
			owners[i] = own
			if !own {
				vals[i] = f.Wait()
			}
		}(i)
	}
	// Every joiner registers before any can return: Wait blocks until
	// Finish below.
	for g.Waiters("k") < waiters {
		runtime.Gosched()
	}
	g.Finish("k", 42)
	wg.Wait()

	if !isOwner || owner == nil {
		t.Fatal("first Begin on an idle key did not own the flight")
	}
	for i := 0; i < waiters; i++ {
		if owners[i] {
			t.Fatalf("caller %d owned a flight that was already in flight", i)
		}
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
	}
	if g.InFlight() != 0 {
		t.Fatalf("flight not forgotten after completion: %d in flight", g.InFlight())
	}
}

// TestFlightGroupForgetsAfterCompletion: unlike a cache, the group
// holds nothing once a flight lands — a later Begin on the same key
// owns a fresh flight (persistence is the store's job, not the flight
// group's).
func TestFlightGroupForgetsAfterCompletion(t *testing.T) {
	var g FlightGroup[string, int]
	if _, own := g.Begin("k"); !own {
		t.Fatal("first Begin did not own the flight")
	}
	g.Finish("k", 1)
	if _, own := g.Begin("k"); !own {
		t.Fatal("second Begin joined a finished flight, want a fresh one")
	}
	if g.Waiters("k") != 0 || g.InFlight() != 1 {
		t.Fatalf("fresh flight: waiters=%d in flight=%d", g.Waiters("k"), g.InFlight())
	}
}

// TestFlightGroupIndependentKeys: distinct keys fly independently and
// concurrently, and one caller may own several flights before finishing
// any of them (the lane-group shape).
func TestFlightGroupIndependentKeys(t *testing.T) {
	var g FlightGroup[int, int]
	for k := 0; k < 16; k++ {
		if _, own := g.Begin(k); !own {
			t.Fatalf("key %d: Begin joined, want owner (one flight per key)", k)
		}
	}
	if n := g.InFlight(); n != 16 {
		t.Fatalf("%d flights in flight, want 16", n)
	}
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		f, own := g.Begin(k)
		if own {
			t.Fatalf("key %d: second Begin owned, want a join", k)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if v := f.Wait(); v != k*k {
				t.Errorf("key %d got %d", k, v)
			}
		}(k)
	}
	for k := 0; k < 16; k++ {
		g.Finish(k, k*k)
	}
	wg.Wait()
}

// InFlight returns the number of executions currently in flight.
func (g *FlightGroup[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
