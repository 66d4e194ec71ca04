package sweep

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"
	"sync"
)

// IndexedStore is the seek-lookup StoreEngine: it opens a JSONL store
// through its sidecar offset index (hash → byte extent) and serves Get
// by a positioned disk read plus a single-record decode, instead of
// loading — and keeping — every record in memory the way Store does.
// This is the long-lived-service store: a sweepd process over a large
// corpus holds the index (about 75 bytes per record), not the corpus.
//
// Concurrency: readers never block each other — record reads are
// os.File.ReadAt against immutable extents, and the index and the file
// are behind an RWMutex taken only for the lookup. A writer (Put)
// appends under the write lock and publishes the new extent afterwards,
// so readers are safe against a concurrent writer by construction: an
// extent, once published, never changes (the data file is append-only
// between compactions, and compaction replaces the file by rename,
// which leaves an already-open reader on the old inode with a
// consistent view).
//
// The index is pure acceleration, never truth: OpenIndexed regenerates
// it from the data file whenever it is missing or stale (so old-format
// stores open fine, and deleting the sidecar costs one rescan), and
// Close rewrites it to cover appends made during the session.
type IndexedStore struct {
	mu      sync.RWMutex
	path    string
	f       *os.File
	idx     index
	size    int64 // current data-file length == next append offset
	dropped int
	dirty   bool // index sidecar is behind the data file
}

// extent locates one record line, [off, off+n) in the data file with
// its newline, by its spec hash's 16 bytes.
type extent struct {
	key    [16]byte
	off, n int64
}

// index is a store's extents in first-seen order, with each hash's
// position among them. It is what the sidecar holds, what a rescan
// builds and what Compact keeps.
type index struct {
	pos map[[16]byte]int32
	ext []extent
}

func newIndex(n int) index {
	return index{pos: make(map[[16]byte]int32, n), ext: make([]extent, 0, n)}
}

// publish installs one extent. A duplicate hash keeps its first-seen
// position and takes the newer extent, like Store.add.
func (ix *index) publish(e extent) {
	if i, ok := ix.pos[e.key]; ok {
		ix.ext[i] = e
		return
	}
	ix.pos[e.key] = int32(len(ix.ext))
	ix.ext = append(ix.ext, e)
}

// unhex maps each lowercase hex digit to its value, any other byte to
// 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// parseHash decodes a content hash, 32 lowercase hex digits as
// Scenario.Hash writes it, into its 16 bytes. Nothing else is a hash
// any record is stored under.
func parseHash[S string | []byte](s S) (k [16]byte, ok bool) {
	if len(s) != 2*len(k) {
		return k, false
	}
	for i := range k {
		hi, lo := unhex[s[2*i]], unhex[s[2*i+1]]
		if hi|lo > 0xf {
			return k, false
		}
		k[i] = hi<<4 | lo
	}
	return k, true
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
	s := &IndexedStore{path: path, f: f}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: open store %s: %w", path, err)
	}
	ix, ok := index{}, false
	if sidecar, err := os.Open(IndexPath(path)); err == nil {
		if info, err := sidecar.Stat(); err == nil {
			ix, ok = readIndex(sidecar, info.Size(), size)
		}
		sidecar.Close()
	}
	if ok {
		s.idx, s.size = ix, size
		return s, nil
	}
	if err := s.rebuild(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scanIndex rescans a data file into a fresh index, decoding every
// line: lines counts the non-empty ones, invalid those that fail.
func scanIndex(f *os.File) (ix index, lines, invalid int, err error) {
	ix = newIndex(0)
	err = walkLines(f, func(off int64, line []byte) {
		lines++
		rec, err := DecodeRecord(line)
		if err != nil {
			invalid++
			return
		}
		key, _ := parseHash(rec.Hash) // DecodeRecord checked it is the spec's hash
		ix.publish(extent{key: key, off: off, n: int64(len(line)) + 1})
	})
	return ix, lines, invalid, err
}

// rebuild rescans the data file into a fresh in-memory index, repairs a
// torn tail, and installs a new sidecar.
func (s *IndexedStore) rebuild() error {
	ix, _, dropped, err := scanIndex(s.f)
	if err != nil {
		return fmt.Errorf("sweep: read store %s: %w", s.path, err)
	}
	s.idx, s.dropped = ix, dropped
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

// readAt decodes the record at an extent of f, the data file as the
// caller found it under the lock: after Close, the read fails. The
// trailing newline is part of the extent; DecodeRecord revalidates the
// hash, and the record must be the one the extent is indexed under, so
// neither a corrupt read nor a sidecar that points one hash at another's
// line can satisfy a lookup.
func (s *IndexedStore) readAt(f *os.File, e extent) (Record, error) {
	buf := make([]byte, e.n)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return Record{}, fmt.Errorf("sweep: store %s: read record %x: %w", s.path, e.key, err)
	}
	rec, err := DecodeRecord(trimNewline(buf))
	if err != nil {
		return Record{}, err
	}
	if key, _ := parseHash(rec.Hash); key != e.key {
		return Record{}, fmt.Errorf("sweep: store %s: extent of %x holds record %s", s.path, e.key, rec.Hash)
	}
	return rec, nil
}

// Get returns the record stored under a spec hash, read from disk.
func (s *IndexedStore) Get(hash string) (Record, bool) {
	key, ok := parseHash(hash)
	if !ok {
		return Record{}, false
	}
	s.mu.RLock()
	f := s.f
	i, ok := s.idx.pos[key]
	var e extent
	if ok {
		e = s.idx.ext[i]
	}
	s.mu.RUnlock()
	if !ok {
		return Record{}, false
	}
	rec, err := s.readAt(f, e)
	if err != nil {
		return Record{}, false
	}
	return rec, true
}

// Put appends rec to the data file and publishes its extent. Encoding
// happens outside the lock; only the append and the index update are
// serialized. A record whose hash is not a content hash is refused: no
// lookup could ever serve it.
func (s *IndexedStore) Put(rec Record) error {
	key, ok := parseHash(rec.Hash)
	if !ok {
		return fmt.Errorf("sweep: store append: %q is not a content hash", rec.Hash)
	}
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
	s.idx.publish(extent{key: key, off: s.size, n: int64(len(line))})
	s.size += int64(len(line))
	s.dirty = true
	return nil
}

// Len returns the number of indexed records.
func (s *IndexedStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx.ext)
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
		f, extents := s.f, slices.Clone(s.idx.ext)
		s.mu.RUnlock()
		for _, e := range extents {
			rec, err := s.readAt(f, e)
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
	if err := writeIndex(s.path, s.idx.ext, s.size); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Close rewrites the sidecar index if appends outdated it, then
// releases the backing file. A crash before Close just costs the next
// open a rescan — the index is regenerable by contract. A Get or All
// that took the file before Close reads a closed file and misses or
// skips; one that takes it after finds none.
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
