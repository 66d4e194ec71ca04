package sweep

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"
	"sync"
)

// IndexedStore is the seek-lookup StoreEngine: it opens a JSONL store
// through its sidecar offset index (hash → byte extent) and serves Get
// by a positioned disk read plus a single-record decode, instead of
// loading — and keeping — every record in memory the way Store does.
// This is the long-lived-service store: a sweepd process over a large
// corpus holds the index (a few dozen bytes per record), not the corpus.
//
// Concurrency: readers never block each other — record reads are
// os.File.ReadAt against immutable extents, and the index map is behind
// an RWMutex taken only for the lookup. A writer (Put) appends under the
// write lock and publishes the new extent afterwards, so readers are
// safe against a concurrent writer by construction: an extent, once
// published, never changes (the data file is append-only between
// compactions, and compaction replaces the file by rename, which leaves
// an already-open reader on the old inode with a consistent view).
//
// The index is pure acceleration, never truth: OpenIndexed regenerates
// it from the data file whenever it is missing or stale (so old-format
// stores open fine, and deleting the sidecar costs one rescan), and
// Close rewrites it to cover appends made during the session.
type IndexedStore struct {
	mu      sync.RWMutex
	path    string
	f       *os.File
	locs    map[string]indexEntry
	order   []string
	size    int64 // current data-file length == next append offset
	dropped int
	dirty   bool // index sidecar is behind the data file
}

// OpenIndexed opens (creating if absent) the JSONL store at path as an
// IndexedStore. With a valid sidecar index the open is O(index): no
// record is decoded. Without one — old-format store, deleted sidecar,
// or a data file that grew or shrank since the index was written — the
// data file is rescanned (invalid lines are dropped and counted by
// Dropped; a torn final line is also terminated, so appends start on a
// fresh line) and a fresh index is installed.
func OpenIndexed(path string) (*IndexedStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	s := &IndexedStore{path: path, f: f, locs: make(map[string]indexEntry)}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: open store %s: %w", path, err)
	}
	if entries, ok := readIndex(path, size); ok {
		for _, e := range entries {
			s.publish(e)
		}
		s.size = size
		return s, nil
	}
	if err := s.rebuild(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// rebuild rescans the data file into a fresh in-memory index, repairs a
// torn tail, and installs a new sidecar.
func (s *IndexedStore) rebuild() error {
	s.locs = make(map[string]indexEntry)
	s.order = nil
	s.dropped = 0
	err := walkLines(s.f, func(off int64, line []byte) {
		rec, err := DecodeRecord(line)
		if err != nil {
			s.dropped++
			return
		}
		s.publish(indexEntry{Hash: rec.Hash, Off: off, Len: int64(len(line)) + 1})
	})
	if err != nil {
		return fmt.Errorf("sweep: read store %s: %w", s.path, err)
	}
	if err := repairTail(s.f); err != nil {
		return fmt.Errorf("sweep: repair store %s: %w", s.path, err)
	}
	size, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("sweep: open store %s: %w", s.path, err)
	}
	s.size = size
	return s.writeSidecar()
}

// publish installs one extent, preserving first-seen order across
// duplicate hashes (the newer extent wins, like Store.add).
func (s *IndexedStore) publish(e indexEntry) {
	if _, ok := s.locs[e.Hash]; !ok {
		s.order = append(s.order, e.Hash)
	}
	s.locs[e.Hash] = e
}

// readAt decodes the record at an extent. The trailing newline is part
// of the extent; DecodeRecord revalidates the hash, and the record must
// be the one the extent is indexed under, so neither a corrupt read nor
// a sidecar that points one hash at another's line can satisfy a lookup.
func (s *IndexedStore) readAt(e indexEntry) (Record, error) {
	buf := make([]byte, e.Len)
	if _, err := s.f.ReadAt(buf, e.Off); err != nil {
		return Record{}, fmt.Errorf("sweep: store %s: read record %s: %w", s.path, e.Hash, err)
	}
	rec, err := DecodeRecord(trimNewline(buf))
	if err != nil {
		return Record{}, err
	}
	if rec.Hash != e.Hash {
		return Record{}, fmt.Errorf("sweep: store %s: extent of %s holds record %s", s.path, e.Hash, rec.Hash)
	}
	return rec, nil
}

// Get returns the record stored under a spec hash, read from disk.
func (s *IndexedStore) Get(hash string) (Record, bool) {
	s.mu.RLock()
	e, ok := s.locs[hash]
	s.mu.RUnlock()
	if !ok {
		return Record{}, false
	}
	rec, err := s.readAt(e)
	if err != nil {
		return Record{}, false
	}
	return rec, true
}

// Put appends rec to the data file and publishes its extent. Encoding
// happens outside the lock; only the append and the index update are
// serialized.
func (s *IndexedStore) Put(rec Record) error {
	line, err := EncodeLine(rec)
	if err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("sweep: store %s is closed", s.path)
	}
	if _, err := s.f.WriteAt(line, s.size); err != nil {
		return fmt.Errorf("sweep: store append: %w", err)
	}
	s.publish(indexEntry{Hash: rec.Hash, Off: s.size, Len: int64(len(line))})
	s.size += int64(len(line))
	s.dirty = true
	return nil
}

// Len returns the number of indexed records.
func (s *IndexedStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locs)
}

// Dropped returns how many lines failed validation, when the open had
// to rescan (0 for an index-served open, which decodes nothing).
func (s *IndexedStore) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// All scans the indexed records in first-seen order (the StoreEngine
// contract), read from disk one at a time. The extent snapshot is taken
// under the read lock; each read and decode happens outside it, safe
// against concurrent appends because published extents are immutable.
func (s *IndexedStore) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		s.mu.RLock()
		extents := make([]indexEntry, 0, len(s.order))
		for _, h := range s.order {
			extents = append(extents, s.locs[h])
		}
		s.mu.RUnlock()
		for _, e := range extents {
			rec, err := s.readAt(e)
			if err != nil {
				continue // unreadable extent: skipped, like a dropped line
			}
			if !yield(rec) {
				return
			}
		}
	}
}

// writeSidecar installs a sidecar covering the current state. Caller
// holds the write lock (or has exclusive access).
func (s *IndexedStore) writeSidecar() error {
	entries := make([]indexEntry, 0, len(s.order))
	for _, h := range s.order {
		entries = append(entries, s.locs[h])
	}
	if err := writeIndex(s.path, entries, s.size); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Close rewrites the sidecar index if appends outdated it, then
// releases the backing file. A crash before Close just costs the next
// open a rescan — the index is regenerable by contract.
func (s *IndexedStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var idxErr error
	if s.dirty {
		idxErr = s.writeSidecar()
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return err
	}
	return idxErr
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
