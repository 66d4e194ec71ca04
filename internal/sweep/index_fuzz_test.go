package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// corruptSidecars are sidecar indexes that once crashed OpenIndexed
// instead of sending it to a rescan, built for a data file of dataBytes
// bytes holding a record under hash: a header whose negative record
// count sized an allocation, and an extent whose end overflows int64
// past the bounds check.
func corruptSidecars(dataBytes int64, hash string) map[string][]byte {
	header := func(records int) string {
		return fmt.Sprintf(`{"magic":%q,"version":%d,"data_bytes":%d,"records":%d}`+"\n",
			indexMagic, indexVersion, dataBytes, records)
	}
	return map[string][]byte{
		"negative-count": []byte(header(-1)),
		"overflowing-extent": []byte(header(1) +
			fmt.Sprintf(`{"hash":%q,"off":%d,"len":%d}`+"\n", hash, int64(1)<<62, int64(1)<<62)),
	}
}

// TestIndexedStoreRescansCorruptSidecar: a corrupt sidecar is stale like
// any other — the open rescans the data file, serves every record, and
// installs a fresh sidecar.
func TestIndexedStoreRescansCorruptSidecar(t *testing.T) {
	golden := readGolden(t)
	first, err := DecodeRecord(golden[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, sidecar := range corruptSidecars(int64(len(bytes.Join(golden, []byte("\n")))+1), first.Hash) {
		t.Run(name, func(t *testing.T) {
			path := goldenStorePath(t)
			want := readPlain(t, path)
			if err := os.WriteFile(IndexPath(path), sidecar, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := OpenIndexed(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := slices.Collect(s.All()); !reflect.DeepEqual(got, want) {
				t.Fatalf("served %d records after the rescan, want %d", len(got), len(want))
			}
			for _, rec := range want {
				if got, ok := s.Get(rec.Hash); !ok || !reflect.DeepEqual(got, rec) {
					t.Fatalf("Get(%s) after the rescan: ok=%v", rec.Hash, ok)
				}
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if entries, ok := readIndex(path, info.Size()); !ok || len(entries) != len(want) {
				t.Fatalf("the rescan left no valid sidecar (ok=%v, %d entries)", ok, len(entries))
			}
		})
	}
}

// FuzzReadIndex opens a small valid store beside arbitrary sidecar bytes:
// OpenIndexed must never panic or fail, and every lookup must serve the
// record stored under the hash asked for, or miss.
func FuzzReadIndex(f *testing.F) {
	golden := readGolden(f)[:4]
	data := append(bytes.Join(golden, []byte("\n")), '\n')
	want := make(map[string]Record, len(golden))
	var first string
	for _, line := range golden {
		rec, err := DecodeRecord(line)
		if err != nil {
			f.Fatal(err)
		}
		want[rec.Hash] = rec
		if first == "" {
			first = rec.Hash
		}
	}
	// Seed with the sidecar a clean open installs, the same sidecar with
	// every hash pointed at the next record's line (current, so no rescan:
	// every Get must miss), the crashers, and noise.
	path := filepath.Join(f.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	s, err := OpenIndexed(path)
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	valid, err := os.ReadFile(IndexPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	lines := bytes.SplitAfter(valid, []byte("\n"))
	entries := lines[1 : 1+len(golden)]
	swapped := append([]byte(nil), lines[0]...)
	for i := range entries {
		var e, next indexEntry
		if err := json.Unmarshal(entries[i], &e); err != nil {
			f.Fatal(err)
		}
		if err := json.Unmarshal(entries[(i+1)%len(entries)], &next); err != nil {
			f.Fatal(err)
		}
		e.Off, e.Len = next.Off, next.Len
		line, err := EncodeLine(e)
		if err != nil {
			f.Fatal(err)
		}
		swapped = append(swapped, line...)
	}
	f.Add(swapped)
	for _, sidecar := range corruptSidecars(int64(len(data)), first) {
		f.Add(sidecar)
	}
	f.Add([]byte("not an index\n"))

	f.Fuzz(func(t *testing.T, sidecar []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(IndexPath(path), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenIndexed(path)
		if err != nil {
			t.Fatalf("open beside a corrupt sidecar: %v", err)
		}
		defer s.Close()
		for hash, rec := range want {
			if got, ok := s.Get(hash); ok && !reflect.DeepEqual(got, rec) {
				t.Fatalf("Get(%s) served record %s", hash, got.Hash)
			}
		}
		for _, got := range slices.Collect(s.All()) {
			if rec, ok := want[got.Hash]; !ok || !reflect.DeepEqual(got, rec) {
				t.Fatalf("Records served %s, which is not the store's record under that hash", got.Hash)
			}
		}
	})
}

// FuzzDecodeRecord: decoding arbitrary bytes never panics, and a record
// it accepts survives EncodeLine and a second decode with its hash and
// spec unchanged.
func FuzzDecodeRecord(f *testing.F) {
	for _, name := range []string{"pr4_records.jsonl", "native_beep_records.jsonl"} {
		for _, line := range readGoldenFile(f, name)[:2] {
			f.Add(line)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"hash":"feedface","spec":{"fam`))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeRecord(line)
		if err != nil {
			return
		}
		enc, err := EncodeLine(rec)
		if err != nil {
			t.Fatalf("accepted record does not encode: %v", err)
		}
		again, err := DecodeRecord(trimNewline(enc))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		if again.Hash != rec.Hash || again.Spec != rec.Spec {
			t.Fatalf("round trip changed the record: %s %+v, then %s %+v", rec.Hash, rec.Spec, again.Hash, again.Spec)
		}
	})
}
