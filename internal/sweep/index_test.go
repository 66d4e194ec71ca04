package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkIndexLine fails unless appendIndexLine writes e as the bytes
// EncodeLine writes for its JSON entry, and parseIndexLine reads them
// back as e.
func checkIndexLine(t *testing.T, e extent) {
	t.Helper()
	want, err := EncodeLine(indexEntry{Hash: hex.EncodeToString(e.key[:]), Off: e.off, Len: e.n})
	if err != nil {
		t.Fatal(err)
	}
	got := appendIndexLine(nil, e)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendIndexLine wrote %q, encoding/json %q", got, want)
	}
	if back, ok := parseIndexLine(got); !ok || back != e {
		t.Fatalf("parseIndexLine(%q) = %+v, %v; want %+v", got, back, ok, e)
	}
}

// TestIndexLineCodec: the sidecar's entry codec writes what
// encoding/json writes and reads it back, on random entries of every
// accepted number width and on each line of the sidecar a rescan of the
// golden store installs.
func TestIndexLineCodec(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 30))
	number := func() int64 {
		limit := int64(1)
		for range 1 + r.IntN(maxLineDigits) {
			limit *= 10
		}
		return r.Int64N(limit)
	}
	for range 10000 {
		var e extent
		binary.LittleEndian.PutUint64(e.key[:8], r.Uint64())
		binary.LittleEndian.PutUint64(e.key[8:], r.Uint64())
		e.off, e.n = number(), number()
		checkIndexLine(t, e)
	}

	path := goldenStorePath(t)
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	s.Close()
	sidecar, err := os.ReadFile(IndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(sidecar, []byte("\n"))
	lines = lines[1 : len(lines)-1] // the header, and the empty tail after the last newline
	if len(lines) != n {
		t.Fatalf("sidecar holds %d entry lines for %d records", len(lines), n)
	}
	for _, line := range lines {
		e, ok := parseIndexLine(line)
		if !ok {
			t.Fatalf("parseIndexLine refused the installed line %q", line)
		}
		checkIndexLine(t, e)
	}
}

// TestIndexedStoreKeysAreContentHashes: the index keys a hash by its 16
// bytes, so a string that is not 32 lowercase hex digits, uppercase hex
// of a stored hash included, misses, and Put refuses a record under one.
func TestIndexedStoreKeysAreContentHashes(t *testing.T) {
	s, err := OpenIndexed(goldenStorePath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := slices.Collect(s.All())[0]
	for _, hash := range []string{strings.ToUpper(rec.Hash), rec.Hash[:31], rec.Hash + "0", ""} {
		if _, ok := s.Get(hash); ok {
			t.Errorf("Get(%q) served a record", hash)
		}
	}
	n := s.Len()
	bad := rec
	bad.Hash = strings.ToUpper(rec.Hash)
	if err := s.Put(bad); err == nil || s.Len() != n {
		t.Fatalf("Put under %q: err=%v, %d records (was %d)", bad.Hash, err, s.Len(), n)
	}
	if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("Get(%s) after the refused Put: ok=%v", rec.Hash, ok)
	}
}

// TestReadIndexSizesFromItsBytes: the header's record count is untrusted.
// A header claiming 2⁴⁰ records beside one entry sizes no allocation by
// that count, and the open rescans and serves the record.
func TestReadIndexSizesFromItsBytes(t *testing.T) {
	line := append(readGolden(t)[0], '\n')
	rec, err := DecodeRecord(trimNewline(line))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	var sidecar bytes.Buffer
	size := int64(len(line))
	for _, v := range []any{
		indexHeader{Magic: indexMagic, Version: indexVersion, DataBytes: size, Records: 1 << 40},
		indexEntry{Hash: rec.Hash, Off: 0, Len: size},
	} {
		if err := EncodeJSONL(&sidecar, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(IndexPath(path), sidecar.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := readIndex(bytes.NewReader(sidecar.Bytes()), int64(sidecar.Len()), size)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a sidecar one entry short of its header's 2⁴⁰ was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a one-entry sidecar allocated %d bytes", got)
	}
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatalf("Get after the rescan: ok=%v", ok)
	}
}

// syntheticRecords is sweepd-mixed's store size.
const syntheticRecords = 1 << 16

// syntheticSidecarStore returns a store of n 1 KiB extents under random
// hashes beside a valid sidecar. The data file is sparse (Truncate to
// the covered size): an open served by the sidecar decodes no record,
// so it measures the sidecar load alone.
func syntheticSidecarStore(tb testing.TB, n int) string {
	tb.Helper()
	const lineBytes = 1 << 10
	path := filepath.Join(tb.TempDir(), "synthetic.jsonl")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Truncate(int64(n) * lineBytes); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	var sidecar bytes.Buffer
	if err := EncodeJSONL(&sidecar, indexHeader{Magic: indexMagic, Version: indexVersion, DataBytes: int64(n) * lineBytes, Records: n}); err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	var key [16]byte
	for i := range n {
		binary.LittleEndian.PutUint64(key[:8], r.Uint64())
		binary.LittleEndian.PutUint64(key[8:], r.Uint64())
		if err := EncodeJSONL(&sidecar, indexEntry{Hash: hex.EncodeToString(key[:]), Off: int64(i) * lineBytes, Len: lineBytes}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := os.WriteFile(IndexPath(path), sidecar.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// openSynthetic opens a syntheticSidecarStore, failing unless the
// sidecar served the open.
func openSynthetic(tb testing.TB, path string) *IndexedStore {
	s, err := OpenIndexed(path)
	if err != nil {
		tb.Fatal(err)
	}
	if s.Len() != syntheticRecords {
		tb.Fatalf("open indexed %d records, want the sidecar's %d", s.Len(), syntheticRecords)
	}
	return s
}

// TestOpenIndexedAllocations: an open served by a 65,536-entry sidecar
// allocates per buffer and table, not per entry.
func TestOpenIndexedAllocations(t *testing.T) {
	path := syntheticSidecarStore(t, syntheticRecords)
	allocs := testing.AllocsPerRun(3, func() { openSynthetic(t, path).Close() })
	if allocs >= 1000 {
		t.Fatalf("an open allocates %.0f times for %d entries, want under 1,000", allocs, syntheticRecords)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := openSynthetic(t, path)
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer s.Close()
	t.Logf("%.0f allocations per open; the open store holds %.1f bytes per record",
		allocs, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/syntheticRecords)
}

// BenchmarkOpenIndexed is the ladder's store-open rung: OpenIndexed and
// Close over sweepd-mixed's 65,536 records, served by the sidecar.
func BenchmarkOpenIndexed(b *testing.B) {
	path := syntheticSidecarStore(b, syntheticRecords)
	b.ReportAllocs()
	for b.Loop() {
		openSynthetic(b, path).Close()
	}
}
