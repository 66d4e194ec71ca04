package sweep

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// indexEntry is a sidecar entry line's JSON schema: encoding/json's
// reading of it is the reference appendIndexLine and parseIndexLine are
// checked against.
type indexEntry struct {
	Hash string `json:"hash"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// readSidecar reads path's sidecar index from disk through readIndex,
// as OpenIndexed does, validated against a data file of dataBytes.
func readSidecar(path string, dataBytes int64) (index, bool) {
	b, err := os.ReadFile(IndexPath(path))
	if err != nil {
		return index{}, false
	}
	return readIndex(bytes.NewReader(b), int64(len(b)), dataBytes)
}

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

// nonCanonicalLines rewrites the entry line of (hash, off, n) in ways
// the sidecar codec refuses. encoding/json reads several of them, some
// as the same entry and some as another.
func nonCanonicalLines(hash string, off, n int64) map[string]string {
	o, l := strconv.FormatInt(off, 10), strconv.FormatInt(n, 10)
	line := func(hash, off, n string) string {
		return `{"hash":"` + hash + `","off":` + off + `,"len":` + n + "}\n"
	}
	return map[string]string{
		"spaces":           `{"hash": "` + hash + `", "off": ` + o + `, "len": ` + l + "}\n",
		"reordered":        `{"off":` + o + `,"hash":"` + hash + `","len":` + l + "}\n",
		"uppercase hex":    line(strings.ToUpper(hash), o, l),
		"31 hex digits":    line(hash[:31], o, l),
		"33 hex digits":    line(hash+"0", o, l),
		"leading zero":     line(hash, "0"+o, l),
		"plus sign":        line(hash, "+"+o, l),
		"minus zero":       line(hash, "-0", l),
		"exponent":         line(hash, o, l+"e0"),
		"19 digits":        line(hash, o, "1"+strings.Repeat("0", maxLineDigits)),
		"trailing bytes":   strings.TrimSuffix(line(hash, o, l), "\n") + " \n",
		"no final newline": strings.TrimSuffix(line(hash, o, l), "\n"),
		"past the buffer":  strings.Repeat(" ", 1<<16) + line(hash, o, l),
	}
}

// TestIndexedStoreRescansCorruptSidecar: a corrupt sidecar is stale like
// any other — the open rescans the data file, serves every record, and
// installs the canonical sidecar again. An entry line in any form but
// the codec's (nonCanonicalLines) is corrupt too.
func TestIndexedStoreRescansCorruptSidecar(t *testing.T) {
	path := goldenStorePath(t)
	want := readPlain(t, path)
	s, err := OpenIndexed(path) // the rescan installs the canonical sidecar
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	canonical, err := os.ReadFile(IndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sidecars := corruptSidecars(info.Size(), want[0].Hash)
	lines := bytes.SplitAfter(canonical, []byte("\n"))
	head, last := bytes.Join(lines[:len(lines)-2], nil), lines[len(lines)-2]
	var e indexEntry
	if err := json.Unmarshal(last, &e); err != nil {
		t.Fatal(err)
	}
	for name, line := range nonCanonicalLines(e.Hash, e.Off, e.Len) {
		if got, ok := parseIndexLine([]byte(line)); ok {
			t.Errorf("parseIndexLine accepted the %s line %q as %+v", name, line, got)
		}
		sidecars[name] = append(slices.Clip(head), line...)
	}
	for name, sidecar := range sidecars {
		t.Run(name, func(t *testing.T) {
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
			if ix, ok := readSidecar(path, info.Size()); !ok || len(ix.ext) != len(want) {
				t.Fatalf("the rescan left no valid sidecar (ok=%v, %d entries)", ok, len(ix.ext))
			}
			if got, err := os.ReadFile(IndexPath(path)); err != nil || !bytes.Equal(got, canonical) {
				t.Fatalf("the rescan did not reinstall the canonical sidecar (err=%v)", err)
			}
		})
	}
}

// FuzzReadIndex reads arbitrary sidecar bytes in memory against a small
// valid store: readIndex must never panic. A sidecar it accepts is then
// installed beside the store, whose open must not fail and whose every
// lookup must serve the record stored under the hash asked for, or
// miss. A sidecar it rejects sends the open to a rescan that never reads
// the sidecar again (TestIndexedStoreRescansCorruptSidecar).
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
		if _, ok := readIndex(bytes.NewReader(sidecar), int64(len(sidecar)), int64(len(data))); !ok {
			return
		}
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

// FuzzIndexLine: a sidecar entry line the codec accepts holds the hash,
// offset and length encoding/json reads in it, and appendIndexLine
// writes it back byte for byte.
func FuzzIndexLine(f *testing.F) {
	const hash = "0123456789abcdef0123456789abcdef"
	f.Add([]byte(`{"hash":"` + hash + `","off":0,"len":1}` + "\n"))
	for _, line := range nonCanonicalLines(hash, 1234, 567) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		e, ok := parseIndexLine(line)
		if !ok {
			return
		}
		var want indexEntry
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", line, err)
		}
		if got := (indexEntry{Hash: hex.EncodeToString(e.key[:]), Off: e.off, Len: e.n}); got != want {
			t.Fatalf("parsed %q as %+v, encoding/json as %+v", line, got, want)
		}
		if got := appendIndexLine(nil, e); !bytes.Equal(got, line) {
			t.Fatalf("parsed %q, which appendIndexLine writes as %q", line, got)
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
