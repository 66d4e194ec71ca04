package sweep

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"
	"sync"
)

// StoreEngine is the result-store contract the scheduling layers (Run,
// Service, FrontierSearch) and the serving layer (cmd/sweepd) consume:
// content-addressed record lookup, append, and a first-seen-order scan.
// Two engines implement it — the load-everything *Store below (the
// historic JSONL format, always readable) and *IndexedStore
// (indexed.go), which opens by sidecar offset index and serves Get by
// disk seek instead of holding every record in memory. Both are safe for
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

// Store is the content-addressed result store: one JSONL line per
// scenario record, indexed in memory by spec hash. A Store opened on an
// existing file serves its records as cache hits, which is what makes an
// interrupted or re-run batch resume for free — the scheduler asks the
// store before running anything.
//
// Appends go straight to disk (line-buffered through the OS), so a
// batch killed mid-run loses at most the record being written; Open
// tolerates a truncated final line for exactly that reason.
type Store struct {
	mu      sync.Mutex
	path    string
	recs    map[string]Record
	order   []string
	f       *os.File
	dropped int
}

// NewMemStore returns an in-memory store (no persistence): the degenerate
// cache the experiment tables use when routing through the scheduler.
func NewMemStore() *Store {
	return &Store{recs: make(map[string]Record)}
}

// Open loads (creating if absent) the JSONL store at path. Lines that do
// not parse, or whose stored hash does not match their spec, are dropped
// from the index (counted by Dropped) — except that a final unparseable
// line is expected after an interrupt and is silently overwritten-around
// by subsequent appends. Lines have no length limit: Open reads through a
// plain reader, so records larger than the historic 16 MiB scanner cap
// load like any other.
func Open(path string) (*Store, error) {
	s := &Store{path: path, recs: make(map[string]Record)}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	err = walkLines(f, func(_ int64, line []byte) {
		rec, err := DecodeRecord(line)
		if err != nil {
			s.dropped++
			return
		}
		s.add(rec)
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: read store %s: %w", path, err)
	}
	// Appends must start on a fresh line even if the file ends in a torn
	// record from an interrupted run, so repair once here: position at
	// end and terminate any unterminated final line.
	if err := repairTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: repair store %s: %w", path, err)
	}
	s.f = f
	return s, nil
}

// walkLines streams f from the start, calling fn(offset, line) for every
// non-empty line (newline excluded; offset is the line's first byte).
// A torn final line — bytes after the last newline, the expected residue
// of an interrupted append — is passed to fn like any other line (its
// decode failure is what callers count). Lines have no length limit.
func walkLines(f *os.File, fn func(off int64, line []byte)) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		n := int64(len(line))
		line = trimNewline(line)
		if len(line) > 0 {
			fn(off, line)
		}
		off += n
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func trimNewline(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		return line[:n-1]
	}
	return line
}

// repairTail terminates an unterminated final line so subsequent appends
// start fresh, and leaves the file positioned at its end.
func repairTail(f *os.File) error {
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if off == 0 {
		return nil
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, off-1); err != nil {
		return err
	}
	if buf[0] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
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

// Put indexes rec and, for a disk-backed store, appends its JSONL line
// (Open repaired any torn final line, so appends are plain writes). The
// JSONL encoding happens before the lock is taken — only the index
// update and the ordered append sit in the critical section, so
// concurrent writers never serialize on each other's encoding work.
func (s *Store) Put(rec Record) error {
	line, err := EncodeLine(rec)
	if err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(rec)
	if s.f == nil {
		return nil
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Dropped returns how many persisted lines failed validation on Open.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
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

// Close releases the backing file (no-op for memory stores).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
