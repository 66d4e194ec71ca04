package sweep

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
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

// An entry line is {"hash":"<32 lowercase hex>","off":N,"len":N} and a
// newline, each N a decimal of at most 18 digits with no sign and no
// leading zero: the bytes encoding/json writes for the entry, which is
// every line a sidecar has ever held. appendIndexLine and
// parseIndexLine are its one codec, and any other entry line makes the
// sidecar stale.
const (
	lineHash = `{"hash":"`
	lineOff  = `","off":`
	lineLen  = `,"len":`
	lineEnd  = "}\n"
	// maxLineDigits keeps every accepted number below 2⁶³.
	maxLineDigits = 18
	// minIndexLine is the shortest entry line: the most entries a
	// sidecar of a given size can hold.
	minIndexLine = len(lineHash) + 32 + len(lineOff) + 1 + len(lineLen) + 1 + len(lineEnd)
)

func appendIndexLine(dst []byte, e extent) []byte {
	dst = append(dst, lineHash...)
	dst = hex.AppendEncode(dst, e.key[:])
	dst = append(dst, lineOff...)
	dst = strconv.AppendInt(dst, e.off, 10)
	dst = append(dst, lineLen...)
	dst = strconv.AppendInt(dst, e.n, 10)
	return append(dst, lineEnd...)
}

// parseIndexLine parses one entry line, newline included, in exactly the
// form appendIndexLine writes.
func parseIndexLine(line []byte) (e extent, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(lineHash))
	if !ok || len(rest) < 32 {
		return e, false
	}
	if e.key, ok = parseHash(rest[:32]); !ok {
		return e, false
	}
	if e.off, rest, ok = lineNumber(rest[32:], lineOff); !ok {
		return e, false
	}
	if e.n, rest, ok = lineNumber(rest, lineLen); !ok {
		return e, false
	}
	return e, string(rest) == lineEnd
}

// lineNumber cuts prefix and then an entry line's number off b.
func lineNumber(b []byte, prefix string) (v int64, rest []byte, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(prefix))
	i := 0
	for ok && i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == 0 || i > maxLineDigits || i > 1 && b[0] == '0' {
		return 0, nil, false
	}
	for _, c := range b[:i] {
		v = v*10 + int64(c-'0')
	}
	return v, b[i:], true
}

// writeIndex atomically replaces path's sidecar index (temp file +
// rename) with the given extents covering dataBytes of the data file.
func writeIndex(path string, extents []extent, dataBytes int64) error {
	idxPath := IndexPath(path)
	tmp, err := os.CreateTemp(dirOf(idxPath), ".sweep-index-*")
	if err != nil {
		return fmt.Errorf("sweep: write index: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	hdr := indexHeader{Magic: indexMagic, Version: indexVersion, DataBytes: dataBytes, Records: len(extents)}
	if err := EncodeJSONL(w, hdr); err != nil {
		tmp.Close()
		return err
	}
	for _, e := range extents {
		if _, err := w.Write(appendIndexLine(w.AvailableBuffer(), e)); err != nil {
			tmp.Close()
			return fmt.Errorf("sweep: write index: %w", err)
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

// readIndex parses a sidecar index of size bytes and validates it
// against dataBytes (the current data-file size). ok is false when the
// index is unreadable, malformed, or stale: every one of those is the
// regenerate signal, never a failure, because the data file is the
// source of truth. Entry lines are parsed in place from the read buffer
// into the index.
func readIndex(sidecar io.Reader, size, dataBytes int64) (ix index, ok bool) {
	r := bufio.NewReaderSize(sidecar, 1<<16)
	line, err := r.ReadSlice('\n')
	if err != nil {
		return ix, false
	}
	var hdr indexHeader
	if json.Unmarshal(line, &hdr) != nil || hdr.Magic != indexMagic || hdr.Version != indexVersion ||
		hdr.DataBytes != dataBytes || hdr.Records < 0 {
		return ix, false
	}
	// The header is untrusted input: its record count sizes the index
	// only up to what the sidecar's bytes can hold, and each extent is
	// checked without an off+n that could overflow.
	ix = newIndex(min(hdr.Records, int(size/int64(minIndexLine))))
	lines := 0
	for {
		line, err := r.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		e, ok := parseIndexLine(line)
		if err != nil || !ok || e.n <= 0 || e.n > dataBytes-e.off {
			return index{}, false
		}
		ix.publish(e)
		lines++
	}
	if lines != hdr.Records {
		return index{}, false
	}
	return ix, true
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

	// Pass 1: the index OpenIndexed's rescan builds — each hash's last
	// valid line, in first-seen order.
	ix, lines, invalid, err := scanIndex(f)
	if err != nil {
		return cs, fmt.Errorf("sweep: compact %s: %w", path, err)
	}
	cs.LinesIn, cs.DroppedInvalid = lines, invalid
	cs.DroppedDuplicate = lines - invalid - len(ix.ext)
	if cs.BytesIn, err = f.Seek(0, io.SeekEnd); err != nil {
		return cs, fmt.Errorf("sweep: compact %s: %w", path, err)
	}

	// Pass 2: copy the surviving raw lines into a temp file, moving each
	// extent to its new offset. An extent counts its newline, which a
	// torn final line lacks, so each line is read without it.
	tmp, err := os.CreateTemp(dirOf(path), ".sweep-compact-*")
	if err != nil {
		return cs, fmt.Errorf("sweep: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	w := bufio.NewWriter(tmp)
	var out int64
	var buf []byte
	for i := range ix.ext {
		e := &ix.ext[i]
		line := slices.Grow(buf[:0], int(e.n))[:e.n-1]
		if _, err := f.ReadAt(line, e.off); err != nil {
			tmp.Close()
			return cs, fmt.Errorf("sweep: compact %s: reread record: %w", path, err)
		}
		buf = append(line, '\n')
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			return cs, fmt.Errorf("sweep: compact: %w", err)
		}
		e.off, out = out, out+e.n
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
	if err := writeIndex(path, ix.ext, out); err != nil {
		return cs, err
	}
	cs.Records = len(ix.ext)
	cs.BytesOut = out
	cs.Reclaimed = cs.BytesIn - cs.BytesOut
	return cs, nil
}
