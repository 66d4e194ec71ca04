package sim

import "sync"

// FlightGroup is keyed request-level singleflight: Begin(key) claims
// key's in-flight execution — the first caller becomes its owner and
// must Finish it, every other caller joins and can Wait for the owner's
// value. Once finished the key is forgotten, so a later Begin starts a
// new flight: it sits beside Cache's memo rather than generalizing it.
// The memo keeps a built artifact (or its build's error) for a batch's
// lifetime; a FlightGroup dedupes only work that is literally in flight.
// Persistence of completed results is the caller's business — sweep's
// Service checks its store first and flies only store misses, so
// identical scenarios submitted by concurrent requests execute exactly
// once, whichever request got there first.
//
// Claiming and finishing are separate calls so one caller can own
// several flights at once (a lane group runs all its members in one
// pass). A caller that owns flights must Finish every one of them
// before it Waits on a flight it joined; two owners that each waited
// on the other's unfinished flight would deadlock.
//
// The zero value is ready to use. Safe for concurrent use.
type FlightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*Flight[V]
}

// Flight is one in-flight execution, shared by its owner and joiners.
type Flight[V any] struct {
	done    sync.WaitGroup
	val     V
	waiters int
}

// Begin claims key. owner is true when no execution for key was in
// flight: the caller now runs it and must call Finish(key, v) exactly
// once. Otherwise the caller joined the owner's flight and f.Wait
// returns the owner's value.
func (g *FlightGroup[K, V]) Begin(key K) (f *Flight[V], owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		return f, false
	}
	f = &Flight[V]{}
	f.done.Add(1)
	if g.m == nil {
		g.m = make(map[K]*Flight[V])
	}
	g.m[key] = f
	return f, true
}

// Finish publishes v to key's joiners and forgets key. Only the owner
// that Begin returned calls it, once.
func (g *FlightGroup[K, V]) Finish(key K, v V) {
	g.mu.Lock()
	f := g.m[key]
	delete(g.m, key)
	g.mu.Unlock()
	f.val = v
	f.done.Done()
}

// Wait blocks until the flight's owner finishes it and returns the
// owner's value.
func (f *Flight[V]) Wait() V {
	f.done.Wait()
	return f.val
}

// Waiters returns how many callers have joined key's in-flight
// execution (0 when key is not in flight). Tests use it to pin dedup
// interleavings deterministically.
func (g *FlightGroup[K, V]) Waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f.waiters
	}
	return 0
}
