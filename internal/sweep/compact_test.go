package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// goldenStorePath copies testdata/pr4_records.jsonl — real records
// generated at the PR 4 tree — into a temp store file.
func goldenStorePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "pr4_records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompactGoldenByteIdentical is the acceptance anchor: a store
// compacted+indexed from the PR 4 golden records serves records
// byte-identical to the uncompacted original — via both engines, by
// snapshot and by point lookup — and the already-clean file compacts to
// identical bytes.
func TestCompactGoldenByteIdentical(t *testing.T) {
	path := goldenStorePath(t)
	orig, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(orig.All())
	orig.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cs, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DroppedInvalid != 0 || cs.DroppedDuplicate != 0 || cs.Records != len(want) {
		t.Fatalf("clean store compaction dropped lines: %+v", cs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("compacting an already-clean store changed its bytes")
	}

	// The compacted+indexed store serves the same records through both
	// engines.
	for name, open := range map[string]func(string) (StoreEngine, error){
		"store":   func(p string) (StoreEngine, error) { return Open(p) },
		"indexed": func(p string) (StoreEngine, error) { return OpenIndexed(p) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := slices.Collect(s.All()); !reflect.DeepEqual(got, want) {
				t.Fatalf("compacted store snapshot differs from original (%d vs %d records)", len(got), len(want))
			}
			for _, rec := range want {
				got, ok := s.Get(rec.Hash)
				if !ok {
					t.Fatalf("record %s missing after compaction", rec.Hash)
				}
				if !reflect.DeepEqual(got, rec) {
					t.Fatalf("record %s differs after compaction", rec.Hash)
				}
			}
		})
	}
}

// TestCompactDropsTornDuplicateInvalid: compaction's whole point — torn
// tails, hash-tampered lines, and superseded duplicates leave the file;
// surviving records don't, and the last duplicate wins in first-seen
// order, matching Store.Open's in-memory semantics.
func TestCompactDropsTornDuplicateInvalid(t *testing.T) {
	path := goldenStorePath(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(s.All())
	s.Close()
	if len(want) < 2 {
		t.Fatal("golden store too small for the test")
	}

	// Append: a re-Put of record 0 (duplicate; this newer copy must
	// win), a tampered line, and a torn tail.
	dup := want[0]
	dup.WallNanos = 12345 // distinguishable newer copy
	dupLine, err := EncodeLine(dup)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(dupLine)
	f.WriteString(`{"hash":"0123456789abcdef0123456789abcdef","spec":{"family":"regular"}}` + "\n")
	f.WriteString(`{"hash":"feedface","spec":{"fam`) // torn tail
	f.Close()

	cs, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DroppedInvalid != 2 || cs.DroppedDuplicate != 1 {
		t.Fatalf("drop accounting: %+v", cs)
	}
	if cs.Records != len(want) || cs.Reclaimed <= 0 {
		t.Fatalf("compaction stats: %+v", cs)
	}

	after, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	got := slices.Collect(after.All())
	want[0] = dup // the newer duplicate, in record 0's original position
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compacted records differ from expected survivor set")
	}
}

// TestIndexedStoreRegeneratesAfterIndexDelete: the sidecar is pure
// acceleration — deleting it costs one rescan, never a record.
func TestIndexedStoreRegeneratesAfterIndexDelete(t *testing.T) {
	path := goldenStorePath(t)
	if _, err := Compact(path); err != nil {
		t.Fatal(err)
	}
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(s.All())
	s.Close()

	if err := os.Remove(IndexPath(path)); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := slices.Collect(s2.All()); !reflect.DeepEqual(got, want) {
		t.Fatal("records differ after index regeneration")
	}
	if _, err := os.Stat(IndexPath(path)); err != nil {
		t.Fatalf("rebuild did not reinstall the sidecar: %v", err)
	}
}

// TestIndexedStoreDetectsStaleIndex: appends made by a plain Store (no
// sidecar update) make the index stale; the next OpenIndexed must
// detect the size mismatch and rescan rather than serve a view missing
// the new records.
func TestIndexedStoreDetectsStaleIndex(t *testing.T) {
	path := goldenStorePath(t)
	if _, err := Compact(path); err != nil {
		t.Fatal(err)
	}

	plain, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := execOrFatal(t, baseSpec())
	if err := plain.Put(rec); err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(plain.All())
	plain.Close()

	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := slices.Collect(s.All()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale index served: %d records, want %d", len(got), len(want))
	}
	if _, ok := s.Get(rec.Hash); !ok {
		t.Fatal("record appended past the index is invisible")
	}
}

// TestIndexedStorePutPersists: appends through the indexed engine are
// durable, visible immediately, and covered by the sidecar after Close
// (so the next open is index-served, no rescan).
func TestIndexedStorePutPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := execOrFatal(t, baseSpec())
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("record invisible right after Put")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Dropped() != 0 {
		t.Fatalf("index-served open reported %d dropped (it decodes nothing)", s2.Dropped())
	}
	if got, ok := s2.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("record lost across close/reopen")
	}
}

// TestStoreOversizedLineLoads: the historic 16 MiB bufio.Scanner cap is
// gone. A record line past it loads fine and is not counted as
// corruption (Dropped).
func TestStoreOversizedLineLoads(t *testing.T) {
	const historicLineCap = 1 << 24
	path := filepath.Join(t.TempDir(), "store.jsonl")
	rec := execOrFatal(t, baseSpec())
	line, err := EncodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Pad the valid line past the old cap with an ignored JSON field;
	// the spec — and so the hash check — is untouched.
	pad := `,"pad":"` + strings.Repeat("x", historicLineCap) + `"}`
	big := append(bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("}")), []byte(pad+"\n")...)
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 || s.Dropped() != 0 {
		t.Fatalf("oversized line: len=%d dropped=%d, want 1/0", s.Len(), s.Dropped())
	}
	if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("oversized record did not round-trip")
	}
}
