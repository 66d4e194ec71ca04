package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The sidecar offset index: <store>.idx beside the JSONL data file.
// Line 1 is the header — a magic/version pair plus the exact number of
// data-file bytes the entries cover — and every following line maps one
// spec hash to the byte extent of its record line. An index is pure
// acceleration: it is regenerated from the data file whenever it is
// missing, unreadable, or stale (header byte count ≠ data file size), so
// deleting it can never lose a record, and old-format stores (no index)
// open exactly as before.
const (
	indexMagic   = "sweep-index"
	indexVersion = 1
)

// IndexPath returns the sidecar index path for a JSONL store path.
func IndexPath(path string) string { return path + ".idx" }

type indexHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// DataBytes is the data-file size the entries cover: the staleness
	// check. Records count the entries (a truncation tripwire).
	DataBytes int64 `json:"data_bytes"`
	Records   int   `json:"records"`
}

// indexEntry locates one record line: [Off, Off+Len) in the data file,
// newline included.
type indexEntry struct {
	Hash string `json:"hash"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// writeIndex atomically replaces path's sidecar index (temp file +
// rename) with the given entries covering dataBytes of the data file.
func writeIndex(path string, entries []indexEntry, dataBytes int64) error {
	idxPath := IndexPath(path)
	tmp, err := os.CreateTemp(dirOf(idxPath), ".sweep-index-*")
	if err != nil {
		return fmt.Errorf("sweep: write index: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	hdr := indexHeader{Magic: indexMagic, Version: indexVersion, DataBytes: dataBytes, Records: len(entries)}
	if err := EncodeJSONL(w, hdr); err != nil {
		tmp.Close()
		return err
	}
	for _, e := range entries {
		if err := EncodeJSONL(w, e); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: write index: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: sync index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: close index: %w", err)
	}
	if err := os.Rename(tmp.Name(), idxPath); err != nil {
		return fmt.Errorf("sweep: install index: %w", err)
	}
	return nil
}

// readIndex loads the sidecar index for path and validates it against
// dataBytes (the current data-file size). ok is false — with no error —
// when the index is missing, malformed, or stale: every one of those is
// the regenerate signal, never a failure, because the data file is the
// source of truth.
func readIndex(path string, dataBytes int64) (entries []indexEntry, ok bool) {
	f, err := os.Open(IndexPath(path))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	hdrLine, err := r.ReadBytes('\n')
	if err != nil {
		return nil, false
	}
	var hdr indexHeader
	if json.Unmarshal(trimNewline(hdrLine), &hdr) != nil ||
		hdr.Magic != indexMagic || hdr.Version != indexVersion || hdr.DataBytes != dataBytes {
		return nil, false
	}
	// The header is untrusted input: its record count only checks the
	// entries read (a count of -1 or 2⁶² must not size an allocation),
	// and each extent is checked without an Off+Len that could overflow.
	for {
		line, err := r.ReadBytes('\n')
		if len(trimNewline(line)) > 0 {
			var e indexEntry
			if json.Unmarshal(trimNewline(line), &e) != nil {
				return nil, false
			}
			if e.Off < 0 || e.Len <= 0 || e.Len > dataBytes-e.Off {
				return nil, false
			}
			entries = append(entries, e)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false
		}
	}
	if len(entries) != hdr.Records {
		return nil, false
	}
	return entries, true
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// CompactStats reports what a compaction pass did.
type CompactStats struct {
	// LinesIn counts non-empty input lines; Records the surviving ones.
	LinesIn, Records int
	// DroppedInvalid counts torn/corrupt/hash-mismatched lines dropped;
	// DroppedDuplicate counts earlier occurrences of re-Put hashes (the
	// last occurrence survives, matching the in-memory index semantics).
	DroppedInvalid, DroppedDuplicate int
	// BytesIn and BytesOut measure the data file before and after;
	// Reclaimed is their difference.
	BytesIn, BytesOut, Reclaimed int64
}

func (cs CompactStats) String() string {
	return fmt.Sprintf("lines=%d records=%d dropped_invalid=%d dropped_duplicate=%d bytes=%d->%d reclaimed=%d",
		cs.LinesIn, cs.Records, cs.DroppedInvalid, cs.DroppedDuplicate, cs.BytesIn, cs.BytesOut, cs.Reclaimed)
}

// Compact rewrites the JSONL store at path, dropping torn, invalid, and
// superseded-duplicate lines, and installs a fresh sidecar offset index
// — the preparation step that lets IndexedStore open by seek instead of
// load. Surviving lines are copied byte for byte (never re-encoded), so
// a compacted store serves records byte-identical to the original; for
// a duplicated hash the last occurrence survives, in the hash's
// first-seen order position, exactly what IndexedStore's rescan of
// the uncompacted file serves. Both files are replaced atomically
// (temp + rename), so a reader holding the old file keeps a consistent
// view and a crash mid-compaction leaves the original untouched.
func Compact(path string) (CompactStats, error) {
	var cs CompactStats
	f, err := os.Open(path)
	if err != nil {
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	defer f.Close()

	// Pass 1: validate every line, remembering for each hash the extent
	// of its last occurrence and the first-seen order.
	type span struct{ off, n int64 }
	last := make(map[string]span)
	var order []string
	err = walkLines(f, func(off int64, line []byte) {
		cs.LinesIn++
		rec, err := DecodeRecord(line)
		if err != nil {
			cs.DroppedInvalid++
			return
		}
		if _, seen := last[rec.Hash]; !seen {
			order = append(order, rec.Hash)
		} else {
			cs.DroppedDuplicate++
		}
		last[rec.Hash] = span{off, int64(len(line))}
	})
	if err != nil {
		return cs, fmt.Errorf("sweep: compact %s: %w", path, err)
	}
	if cs.BytesIn, err = f.Seek(0, io.SeekEnd); err != nil {
		return cs, fmt.Errorf("sweep: compact %s: %w", path, err)
	}

	// Pass 2: copy the surviving raw lines into a temp file, recording
	// their new offsets for the index.
	tmp, err := os.CreateTemp(dirOf(path), ".sweep-compact-*")
	if err != nil {
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	entries := make([]indexEntry, 0, len(order))
	var out int64
	buf := make([]byte, 0, 1<<16)
	for _, h := range order {
		sp := last[h]
		if int64(cap(buf)) < sp.n {
			buf = make([]byte, sp.n)
		}
		buf = buf[:sp.n]
		if _, err := f.ReadAt(buf, sp.off); err != nil {
			tmp.Close()
			return cs, fmt.Errorf("sweep: compact %s: reread record: %w", path, err)
		}
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			return cs, fmt.Errorf("sweep: compact: %w", err)
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			tmp.Close()
			return cs, fmt.Errorf("sweep: compact: %w", err)
		}
		entries = append(entries, indexEntry{Hash: h, Off: out, Len: sp.n + 1})
		out += sp.n + 1
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return cs, fmt.Errorf("sweep: compact: install: %w", err)
	}
	if err := writeIndex(path, entries, out); err != nil {
		return cs, err
	}
	cs.Records = len(order)
	cs.BytesOut = out
	cs.Reclaimed = cs.BytesIn - cs.BytesOut
	return cs, nil
}
