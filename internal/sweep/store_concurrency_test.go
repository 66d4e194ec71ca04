package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// specN returns the base spec varied by seed, giving distinct hashes.
func specN(i int) Scenario {
	sc := baseSpec()
	sc.AlgSeed = uint64(1000 + i)
	return sc
}

// engineConcurrency exercises parallel Get/Put/Records against one
// engine under -race: writers append distinct records while readers
// look up already-landed hashes and snapshot the full set.
func engineConcurrency(t *testing.T, s StoreEngine) {
	t.Helper()
	const writers, perWriter, readers = 4, 8, 4

	// Pre-execute the records serially; the concurrency under test is
	// the store's, not the engine's.
	recs := make([]Record, writers*perWriter)
	for i := range recs {
		recs[i] = execOrFatal(t, specN(i))
	}
	seed := recs[0]
	if err := s.Put(seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put(recs[w*perWriter+i]); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if got, ok := s.Get(seed.Hash); !ok || got.Hash != seed.Hash {
					t.Error("seed record unreadable during writes")
				}
				for _, rec := range slices.Collect(s.All()) {
					if rec.Hash == "" {
						t.Error("snapshot contains zero record")
					}
				}
				_ = s.Len()
			}
		}()
	}
	wg.Wait()

	for _, rec := range recs {
		got, ok := s.Get(rec.Hash)
		if !ok {
			t.Fatalf("record %s lost", rec.Hash)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %s corrupted", rec.Hash)
		}
	}
	if s.Len() != len(recs) {
		t.Fatalf("Len=%d, want %d", s.Len(), len(recs))
	}
}

func TestStoreConcurrency(t *testing.T) {
	for name, open := range map[string]func(string) (StoreEngine, error){
		"store":   func(string) (StoreEngine, error) { return NewMemStore(), nil },
		"indexed": func(p string) (StoreEngine, error) { return OpenIndexed(p) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := open(filepath.Join(t.TempDir(), "store.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			engineConcurrency(t, s)
		})
	}
}

// TestReaderDuringCompaction: a store opened before compaction keeps a
// consistent view (its fd pins the old inode) while Compact atomically
// replaces the file, and readers racing the rename see either complete
// version — never a partial write.
func TestReaderDuringCompaction(t *testing.T) {
	path := goldenStorePath(t)
	reader, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	want := slices.Collect(reader.All())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := slices.Collect(reader.All()); !reflect.DeepEqual(got, want) {
					t.Error("reader view changed during compaction")
					return
				}
				for _, rec := range want {
					if got, ok := reader.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
						t.Error("point read failed during compaction")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if _, err := Compact(path); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// A fresh open of the compacted file sees the same records.
	fresh, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := slices.Collect(fresh.All()); !reflect.DeepEqual(got, want) {
		t.Fatal("compacted file differs from pre-compaction view")
	}
}

// TestCompactPreservesDirtyAppends: appends landed by a concurrent
// writer before Compact's scan are carried into the rewrite — Compact
// reads the file, not any in-memory view.
func TestCompactPreservesDirtyAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 4; i++ {
		rec := execOrFatal(t, specN(i))
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	// The writer stays open, so its sidecar still describes the empty
	// file it opened: Compact must read the appends from the data file.
	defer s.Close()

	cs, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Records != len(want) {
		t.Fatalf("compaction kept %d records, want %d: %+v", cs.Records, len(want), cs)
	}
	after, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if got := slices.Collect(after.All()); !reflect.DeepEqual(got, want) {
		t.Fatal("records differ after compacting appended store")
	}
}

// TestCompactMissingFile: compacting a path that does not exist is an
// error, not a silent empty store.
func TestCompactMissingFile(t *testing.T) {
	if _, err := Compact(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("Compact on a missing file succeeded")
	}
}

// TestIndexedStoreRecordsFirstSeenOrder pins the order contract shared
// with Store: Records returns first-seen order regardless of lookup
// structure.
func TestIndexedStoreRecordsFirstSeenOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 6; i++ {
		rec := execOrFatal(t, specN(i))
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rec.Hash)
	}
	s.Close()

	s2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := slices.Collect(s2.All())
	if len(got) != len(hashes) {
		t.Fatalf("got %d records, want %d", len(got), len(hashes))
	}
	for i, rec := range got {
		if rec.Hash != hashes[i] {
			t.Fatalf("record %d out of order: got %s, want %s", i, rec.Hash, hashes[i])
		}
	}
	if err := os.Remove(IndexPath(path)); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for i, rec := range slices.Collect(s3.All()) {
		if rec.Hash != hashes[i] {
			t.Fatalf("rescan record %d out of order: got %s, want %s", i, rec.Hash, hashes[i])
		}
	}
}
