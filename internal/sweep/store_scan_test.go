package sweep

import (
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// scanEngines opens one store of each engine, each holding recs[:n].
func scanEngines(t *testing.T, recs []Record, n int) map[string]StoreEngine {
	t.Helper()
	engines := make(map[string]StoreEngine)
	for name, open := range map[string]func(string) (StoreEngine, error){
		"store":   func(p string) (StoreEngine, error) { return Open(p) },
		"indexed": func(p string) (StoreEngine, error) { return OpenIndexed(p) },
	} {
		s, err := open(filepath.Join(t.TempDir(), name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			// After a failure a scan may still hold the store's lock,
			// which Close would wait on for good.
			if !t.Failed() {
				s.Close()
			}
		})
		for _, rec := range recs[:n] {
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		engines[name] = s
	}
	return engines
}

// fakeStoreRecords returns n distinct records that carry only a hash
// and its spec: enough for DecodeRecord.
func fakeStoreRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		sc := specN(i)
		recs[i] = Record{Hash: sc.Hash(), Spec: sc}
	}
	return recs
}

func hashesOf(recs []Record) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.Hash
	}
	return out
}

// withinDeadline runs f on its own goroutine and fails the test if f
// has not returned in time: a scan that held a lock across yield would
// block a store call made from the loop body for good.
func withinDeadline(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestStoreAllSnapshot pins the scan contract for both engines: an
// iteration yields the records indexed when it starts, in first-seen
// order — a Put between All() and the loop is yielded, a Put made from
// the loop body returns (no lock is held across yield) but is not.
func TestStoreAllSnapshot(t *testing.T) {
	recs := fakeStoreRecords(6)
	for name, s := range scanEngines(t, recs, 3) {
		t.Run(name, func(t *testing.T) {
			seq := s.All()
			if err := s.Put(recs[3]); err != nil {
				t.Fatal(err)
			}
			var got []Record
			withinDeadline(t, "a scan whose body calls Put (a lock held across yield blocks that Put)", func() {
				for rec := range seq {
					got = append(got, rec)
					if len(got) == 2 {
						if err := s.Put(recs[4]); err != nil {
							t.Error(err)
						}
						if _, ok := s.Get(recs[4].Hash); !ok {
							t.Error("a Put from the loop body is not served by Get")
						}
					}
				}
			})
			if want := hashesOf(recs[:4]); !slices.Equal(hashesOf(got), want) {
				t.Fatalf("scan yielded %v, want the snapshot %v", hashesOf(got), want)
			}
			if err := s.Put(recs[5]); err != nil {
				t.Fatal(err)
			}
			if got, want := hashesOf(slices.Collect(seq)), hashesOf(recs); !slices.Equal(got, want) {
				t.Fatalf("a second iteration of the same sequence yielded %v, want %v", got, want)
			}
		})
	}
}

// TestStoreAllBreakStopsReads: leaving the loop early ends the scan's
// reads. For Store a read is a lookup under its lock: the body breaks
// while holding that lock, so a scan that read on would block. For
// IndexedStore a read is a ReadAt and a decode: a scan broken after its
// first record allocates for that one read, not for a second, while the
// full scan allocates for every record.
func TestStoreAllBreakStopsReads(t *testing.T) {
	recs := fakeStoreRecords(64)
	engines := scanEngines(t, recs, len(recs))

	t.Run("store", func(t *testing.T) {
		s := engines["store"].(*Store)
		withinDeadline(t, "a scan broken while its store is locked (a read after the break waits on that lock)", func() {
			n := 0
			for range s.All() {
				n++
				s.mu.Lock()
				break
			}
			s.mu.Unlock()
			if n != 1 {
				t.Errorf("scan yielded %d records before the break, want 1", n)
			}
		})
	})

	t.Run("indexed", func(t *testing.T) {
		s := engines["indexed"].(*IndexedStore)
		oneRead := testing.AllocsPerRun(20, func() {
			if _, ok := s.Get(recs[0].Hash); !ok {
				t.Fatal("record missing")
			}
		})
		broken := testing.AllocsPerRun(20, func() {
			for range s.All() {
				break
			}
		})
		full := testing.AllocsPerRun(5, func() {
			for range s.All() {
			}
		})
		if broken > 1.5*oneRead || full < 0.5*float64(len(recs))*oneRead {
			t.Fatalf("allocations: %v for a scan broken after one record, %v for the full scan of %d, %v for one read",
				broken, full, len(recs), oneRead)
		}
	})
}
