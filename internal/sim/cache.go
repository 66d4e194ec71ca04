package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// Default artifact-cache bounds. A sweep batch touches one graph per
// (family, n, Δ, graph-seed) point and one code table per
// parameterization, so these cover grids far larger than anything the
// experiment suite runs while keeping worst-case memory bounded.
const (
	DefaultMaxGraphs = 128
	DefaultMaxCodes  = 64
)

// Cache shares the expensive pure-function artifacts of scenario
// execution across a batch: graphs keyed by their GraphKey, and
// Algorithm 1 code tables (core.Codes) keyed by the full core.Params
// value, whose PRG-hashed beep and distance codes are in turn shared by
// every Params with one core.Params.TableKey. A 64-scenario grid over
// ε/noise/engine/replicate axes re-uses each graph and hashes each code
// once instead of rebuilding them per scenario, and a shared graph
// additionally memoizes derived structure (the TDMA engine's distance-2
// coloring) across the scenarios that run on it. Every sweep.Service
// owns one (sweep.Options.Artifacts, or a fresh one).
//
// Determinism: both artifact kinds are pure functions of their keys and
// immutable once built, so cache hits are indistinguishable from fresh
// construction — records are byte-identical with the cache on or off
// (TestArtifactCacheRecordsIdentical). A nil *Cache is valid and
// caches nothing.
type Cache struct {
	graphs memo[GraphKey, *graph.Graph]
	codes  memo[core.Params, *core.Codes]
	tables memo[core.Params, *core.Codes] // by TableKey: what codes entries rebind
}

// errBuildPanicked is what a memo serves for a key whose build panicked.
var errBuildPanicked = errors.New("sim: artifact build panicked")

// memo is a bounded build-once map. Concurrent lookups of one key build
// once (per-entry sync.Once). On overflow it evicts the oldest *built*
// entry: one still in flight is never evicted, so a waiter can never
// hold a dropped entry while a new lookup rebuilds its key (the map may
// transiently exceed its bound by the number of in-flight builds). A
// failed build stays cached: its key is served the same error, without
// a rebuild. A build that panics counts as failed: the panic reaches
// its caller, and every waiter and later lookup gets errBuildPanicked.
type memo[K comparable, V any] struct {
	mu           sync.Mutex
	entries      map[K]*memoEntry[V]
	order        []K // insertion order, oldest first
	max          int
	hits, misses atomic.Int64 // written under mu, read by Stats without it
}

type memoEntry[V any] struct {
	once  sync.Once
	built bool // guarded by memo.mu: set once the build completed
	v     V
	err   error
}

// get returns key's cached value, calling build (a pure function of
// key) at most once per cached entry.
func (m *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
		if len(m.entries) >= m.max {
			m.evictOldestBuilt()
		}
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.entries[key] = e
		m.order = append(m.order, key)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			m.mu.Lock()
			e.built = true
			m.mu.Unlock()
		}()
		e.err = errBuildPanicked // until build returns
		e.v, e.err = build()
	})
	return e.v, e.err
}

// evictOldestBuilt removes the oldest entry whose build has completed,
// if any; in-flight entries are skipped (a waiter inside their
// sync.Once still needs them). Caller holds m.mu.
func (m *memo[K, V]) evictOldestBuilt() {
	for i, k := range m.order {
		if m.entries[k].built {
			delete(m.entries, k)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// NewCache returns an empty cache with the default bounds.
func NewCache() *Cache {
	return NewCacheBounded(DefaultMaxGraphs, DefaultMaxCodes)
}

// NewCacheBounded returns an empty cache holding at most maxGraphs
// graphs and maxCodes code tables per Params and per TableKey (each at
// least 1).
func NewCacheBounded(maxGraphs, maxCodes int) *Cache {
	if maxGraphs < 1 || maxCodes < 1 {
		panic(fmt.Sprintf("sim: cache bounds must be positive, got %d graphs / %d codes", maxGraphs, maxCodes))
	}
	c := &Cache{}
	c.graphs.max, c.codes.max, c.tables.max = maxGraphs, maxCodes, maxCodes
	return c
}

// GraphKey is the complete identity of a scenario graph: BuildGraph is a
// pure function of these four fields (DESIGN.md §4), so they are the
// cache key.
type GraphKey struct {
	Family string
	N      int
	Param  int
	Seed   uint64
}

// Graph returns the cached graph for key, calling build (which must be a
// pure function of the key) at most once per cached entry. A nil cache
// just calls build.
func (c *Cache) Graph(key GraphKey, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	if c == nil {
		return build()
	}
	return c.graphs.get(key, build)
}

// Codes returns the cached Algorithm 1 decode tables for p, building
// them at most once per cached entry, and hashing their beep and
// distance codes at most once per cached p.TableKey(): a miss rebinds
// the codes of an earlier Params that differs only in ε, channel,
// assignment or solo filter. A nil cache builds fresh tables.
func (c *Cache) Codes(p core.Params) (*core.Codes, error) {
	if c == nil {
		return core.BuildCodes(p)
	}
	return c.codes.get(p, func() (*core.Codes, error) {
		base, err := c.tables.get(p.TableKey(), func() (*core.Codes, error) { return core.BuildCodes(p) })
		if err != nil {
			return nil, err
		}
		return base.Rebind(p)
	})
}

// CacheStats reports hit/miss counts per artifact kind.
type CacheStats struct {
	GraphHits, GraphMisses int64
	CodeHits, CodeMisses   int64
}

// Stats returns a snapshot of the cache's counters (zero for nil).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		GraphHits: c.graphs.hits.Load(), GraphMisses: c.graphs.misses.Load(),
		CodeHits: c.codes.hits.Load(), CodeMisses: c.codes.misses.Load(),
	}
}

func (s CacheStats) String() string {
	return fmt.Sprintf("graphs %d/%d codes %d/%d (hits/misses)",
		s.GraphHits, s.GraphMisses, s.CodeHits, s.CodeMisses)
}
