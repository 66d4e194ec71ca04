package sweep

import (
	"fmt"
	"iter"
	"sync"
)

// StoreEngine is the result-store contract the scheduling layers (Run,
// Service, FrontierSearch) and the serving layer (cmd/sweepd) consume:
// content-addressed record lookup, append, and a first-seen-order scan.
// Two engines implement it — the in-memory *Store below, and
// *IndexedStore (indexed.go), the one engine over a JSONL store file,
// which opens by sidecar offset index and serves Get by disk seek
// instead of holding every record in memory. Both are safe for
// concurrent use; by the store contract a record, once Put, is immutable
// (records are pure functions of their spec hash), so every engine may
// serve Get from whichever copy — memory or disk — it holds.
type StoreEngine interface {
	// Get returns the record stored under a spec hash.
	Get(hash string) (Record, bool)
	// Put indexes rec and, for disk-backed engines, appends its line to
	// the data file before returning. An acknowledged append survives a
	// crash of the process but not of the kernel: there is no fsync
	// (DESIGN.md §2.18).
	Put(rec Record) error
	// Len returns the number of indexed records.
	Len() int
	// All scans the indexed records in first-seen order, one at a time.
	// Each iteration snapshots the order when it starts, so it yields
	// exactly the records indexed at that moment — a Put made during
	// the scan is not yielded — and holds no lock while it yields, so
	// the loop body may call any method of the store, Put included.
	// Breaking out of the loop stops the scan's reads.
	All() iter.Seq[Record]
	// Close releases any backing resources.
	Close() error
}

// Store is the in-memory StoreEngine: every record decoded, indexed by
// spec hash, with nothing on disk. It is the cache of a run that keeps
// no store file — the experiment tables, the benchmark and a cmd/sweep
// run without -store — and the only engine that runs without one; a
// store file is read and appended through IndexedStore.
type Store struct {
	mu    sync.Mutex
	recs  map[string]Record
	order []string
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *Store {
	return &Store{recs: make(map[string]Record)}
}

func (s *Store) add(rec Record) {
	if _, ok := s.recs[rec.Hash]; !ok {
		s.order = append(s.order, rec.Hash)
	}
	s.recs[rec.Hash] = rec
}

// Get returns the cached record for a spec hash.
func (s *Store) Get(hash string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[hash]
	return rec, ok
}

// Put indexes rec. It encodes the record first, so a record that no
// disk engine could append is refused here too; the encoding happens
// before the lock is taken, and only the index update sits in the
// critical section.
func (s *Store) Put(rec Record) error {
	if _, err := EncodeLine(rec); err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(rec)
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// All scans the indexed records in first-seen order (the StoreEngine
// contract). The snapshot is the order's current prefix, which appends
// never rewrite; each record is looked up under the lock and yielded
// outside it.
func (s *Store) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		s.mu.Lock()
		order := s.order[:len(s.order):len(s.order)]
		s.mu.Unlock()
		for _, h := range order {
			s.mu.Lock()
			rec := s.recs[h]
			s.mu.Unlock()
			if !yield(rec) {
				return
			}
		}
	}
}

// Close is a no-op: a memory store holds no resources.
func (s *Store) Close() error { return nil }
