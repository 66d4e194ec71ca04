package sweep

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// crashChildEnv, when set, makes TestIndexedStoreCrashConsistency the
// child it starts: an append loop over the store at that path.
const crashChildEnv = "SWEEP_CRASH_TEST_STORE"

const (
	// crashAcks is how many acknowledged appends the parent waits for
	// before it kills the child.
	crashAcks = 256
	// crashAppendCap ends the child's loop should no kill ever come.
	crashAppendCap = 4096
)

// crashRecord is the child's i-th append: a hash-valid record whose
// line spans several pages, so the kill can land inside its write.
func crashRecord(i int) Record {
	sc := specN(i)
	return Record{Hash: sc.Hash(), Spec: sc, Failure: strings.Repeat("x", 16<<10)}
}

// appendUntilKilled is the child: it appends crashRecord(0), (1), … to
// an IndexedStore and prints "ack <hash>" once each Put has returned.
// It never closes the store, so its sidecar stays stale.
func appendUntilKilled(path string) {
	s, err := OpenIndexed(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; i < crashAppendCap; i++ {
		rec := crashRecord(i)
		if err := s.Put(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("ack %s\n", rec.Hash)
	}
	os.Exit(3)
}

// TestIndexedStoreCrashConsistency: an acknowledged Put survives a crash
// of the process. The test re-runs its own binary as an append loop,
// kills it with SIGKILL mid-loop, and reopens the store: every
// acknowledged record is served hash-valid, at most the one line the
// kill tore is dropped, and the reopen rewrites the sidecar to cover
// the whole file.
func TestIndexedStoreCrashConsistency(t *testing.T) {
	if path := os.Getenv(crashChildEnv); path != "" {
		appendUntilKilled(path)
		return
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	child := exec.Command(os.Args[0], "-test.run=^TestIndexedStoreCrashConsistency$")
	child.Env = append(os.Environ(), crashChildEnv+"="+path)
	child.Stderr = os.Stderr
	out, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	var acked []string
	lines := bufio.NewScanner(out)
	readAck := func() bool {
		for lines.Scan() {
			if hash, ok := strings.CutPrefix(lines.Text(), "ack "); ok {
				acked = append(acked, hash)
				return true
			}
		}
		return false
	}
	for len(acked) < crashAcks && readAck() {
	}
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	for readAck() { // acknowledgements printed before the kill landed
	}
	err = child.Wait()
	if len(acked) < crashAcks {
		t.Fatalf("the append loop ended after %d acknowledgements: %v", len(acked), err)
	}

	s, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, hash := range acked {
		want := crashRecord(i)
		if hash != want.Hash {
			t.Fatalf("acknowledgement %d is %s, want %s", i, hash, want.Hash)
		}
		if got, ok := s.Get(hash); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("acknowledged record %d (%s) lost after the crash (served: %v)", i, hash, ok)
		}
	}
	if d := s.Dropped(); d > 1 {
		t.Fatalf("reopen dropped %d lines, want at most the one torn by the kill", d)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := readSidecar(path, info.Size())
	if !ok || len(ix.ext) != s.Len() || s.Len() < len(acked) {
		t.Fatalf("sidecar after reopen: valid=%v, %d entries for %d records (%d acknowledged)", ok, len(ix.ext), s.Len(), len(acked))
	}
	t.Logf("%d acknowledged appends, %d records after reopen, %d torn line(s) dropped", len(acked), s.Len(), s.Dropped())
}
