package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"iter"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// testGrid is the e2e grid: small enough to run in seconds, wide enough
// to cross engines and workloads (8 scenarios). mis carries an output
// validity check (output_ok lands on its records); noisy gossip is
// unverified by design (output_ok nil).
const testGrid = `{"families":["regular"],"ns":[14],"params":[3],"epsilons":[0.1],"engines":["alg1","tdma"],"workloads":["gossip","mis"],"rounds":2,"replicates":2,"base_seed":2023}`

// testScenarios expands a POST /grids body the way the server does.
func testScenarios(t *testing.T, body string) []sweep.Scenario {
	t.Helper()
	var g sweep.Grid
	if err := json.Unmarshal([]byte(body), &g); err != nil {
		t.Fatal(err)
	}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scenarios
}

// newTestDaemon assembles the full sweepd stack — indexed store,
// service, HTTP surface — on an httptest listener.
func newTestDaemon(t *testing.T, opts sweep.Options) (*httptest.Server, *obs.Registry) {
	t.Helper()
	store, err := sweep.OpenIndexed(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if opts.Artifacts == nil {
		opts.Artifacts = sim.NewCache()
	}
	svc := sweep.NewService(store, opts)
	ts := httptest.NewServer(newServer(store, svc, reg))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		store.Close()
	})
	return ts, reg
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// submitGrid posts body to /grids and returns the decoded handle.
func submitGrid(t *testing.T, base, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(base+"/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /grids: %s: %s", resp.Status, b)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitJob polls the job status endpoint until Complete.
func waitJob(t *testing.T, base, statusPath string) sweep.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st sweep.JobStatus
		getJSON(t, base+statusPath, &st)
		if st.Complete {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not complete: %+v", statusPath, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fakeRecords stands in for engine work in blocking ExecuteFunc seams:
// one record per scenario carrying only its hash and spec.
func fakeRecords(group []sweep.Scenario) []sweep.Record {
	recs := make([]sweep.Record, len(group))
	for k, sc := range group {
		recs[k] = sweep.Record{Hash: sc.Hash(), Spec: sc}
	}
	return recs
}

// metric reads one counter from the /metrics snapshot.
func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	var snap []obs.Metric
	getJSON(t, base+"/metrics", &snap)
	for _, m := range snap {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// decodeRecords parses a JSONL body of records, revalidating hashes.
func decodeRecords(t *testing.T, r io.Reader) []sweep.Record {
	t.Helper()
	var recs []sweep.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		rec, err := sweep.DecodeRecord(sc.Bytes())
		if err != nil {
			t.Fatalf("bad record line: %v", err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// canonLine is the repo's byte-identity form: timing fields zeroed.
func canonLine(t *testing.T, rec sweep.Record) []byte {
	t.Helper()
	rec.WallNanos, rec.BuildNanos = 0, 0
	var buf bytes.Buffer
	if err := sweep.EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepdEndToEnd drives the full HTTP surface: submit a grid, poll
// to completion, and require the served records byte-identical to a
// cmd/sweep-style batch Run over the same scenarios; then point reads,
// the aggregate, and a full-cache-hit resubmission with zero new
// executions.
func TestSweepdEndToEnd(t *testing.T) {
	ts, _ := newTestDaemon(t, sweep.Options{Jobs: 2})
	base := ts.URL

	// The reference: the batch path over the same scenarios.
	refStore, err := sweep.OpenIndexed(filepath.Join(t.TempDir(), "ref.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	want, _, err := sweep.Run(testScenarios(t, testGrid), refStore, sweep.Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}

	sr := submitGrid(t, base, testGrid)
	if sr.Total != len(want) {
		t.Fatalf("submitted total=%d, want %d", sr.Total, len(want))
	}
	st := waitJob(t, base, sr.Status)
	if st.Failed != 0 || st.Done != st.Total {
		t.Fatalf("job finished unhealthy: %+v", st)
	}

	// Byte identity, slot for slot, HTTP against batch.
	resp, err := http.Get(base + sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeRecords(t, resp.Body)
	resp.Body.Close()
	if len(got) != len(want) {
		t.Fatalf("served %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := canonLine(t, got[i]), canonLine(t, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("slot %d differs between sweepd and batch:\n http: %s\n  run: %s", i, g, w)
		}
	}
	verified := 0
	for _, rec := range got {
		if rec.Counters.OutputOK != nil {
			if !*rec.Counters.OutputOK {
				t.Fatalf("record %s failed output verification", rec.Hash)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no record carried an output verification")
	}

	// Point read by hash, and a miss.
	var one sweep.Record
	getJSON(t, base+"/records/"+want[0].Hash, &one)
	if !bytes.Equal(canonLine(t, one), canonLine(t, want[0])) {
		t.Fatal("point read differs")
	}
	if resp, err := http.Get(base + "/records/deadbeef"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing hash: %s, want 404", resp.Status)
	}

	// The store-wide streams.
	if resp, err := http.Get(base + "/records"); err != nil {
		t.Fatal(err)
	} else {
		all := decodeRecords(t, resp.Body)
		resp.Body.Close()
		if len(all) != len(want) {
			t.Fatalf("/records served %d, want %d", len(all), len(want))
		}
	}
	var groups []sweep.Group
	getJSON(t, base+"/aggregate", &groups)
	if len(groups) == 0 {
		t.Fatal("/aggregate served no groups")
	}

	// The event feed replays in full after completion.
	if resp, err := http.Get(base + sr.Events); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if lines := bytes.Count(body, []byte("\n")); lines != st.Total {
			t.Fatalf("event replay has %d lines, want %d", lines, st.Total)
		}
	}

	// Resubmission: a full cache hit — zero new executions, all slots
	// cached, byte-identical records again.
	execsBefore := metric(t, base, "sweep.service.executions")
	sr2 := submitGrid(t, base, testGrid)
	st2 := waitJob(t, base, sr2.Status)
	if st2.Cached != st2.Total || st2.Ran != 0 {
		t.Fatalf("resubmission not fully cached: %+v", st2)
	}
	if execsAfter := metric(t, base, "sweep.service.executions"); execsAfter != execsBefore {
		t.Fatalf("resubmission executed: %d -> %d", execsBefore, execsAfter)
	}

	// /progress sums every accepted job: the cold run and the full hit.
	var prog progressBody
	getJSON(t, base+"/progress", &prog)
	if prog.Total != 2*st.Total || prog.Done != prog.Total || prog.Ran != st.Total || prog.Cached != st.Total || prog.Failed != 0 {
		t.Fatalf("/progress = %+v, want both jobs' %d slots, half ran and half cached", prog, 2*st.Total)
	}

	var jobs map[string][]string
	getJSON(t, base+"/jobs", &jobs)
	if len(jobs["jobs"]) != 2 {
		t.Fatalf("job listing: %v", jobs)
	}
}

// waitForFlightWaiter polls goroutine stacks until a goroutine sits in
// sim.Flight.Wait — the second submission's worker, joined to the
// flight the first one owns (and holds open in the test's ExecuteFunc)
// — so a release at that point deterministically exercises the share
// path.
func waitForFlightWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<22)
	deadline := time.Now().Add(30 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if strings.Contains(stacks, "internal/sim.(*Flight[...]).Wait") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("second submission never joined the flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepdConcurrentSubmissionsSingleflight is the acceptance
// scenario: two concurrent submissions of the same grid execute each
// scenario exactly once, asserted via the obs dedup counter. The
// execution is blocked (injected ExecuteFunc) until the second
// submission has provably joined the in-flight execution.
func TestSweepdConcurrentSubmissionsSingleflight(t *testing.T) {
	oneScenario := `{"families":["regular"],"ns":[14],"params":[3],"epsilons":[0.1],"engines":["alg1"],"workloads":["gossip"],"rounds":2,"replicates":1,"base_seed":2023}`
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	started := make(chan struct{}, 4)
	ts, reg := newTestDaemon(t, sweep.Options{
		Jobs: 2,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			started <- struct{}{}
			<-release
			return fakeRecords(group), nil
		},
	})
	defer releaseOnce() // before the daemon's cleanup closes the service
	base := ts.URL

	sr1 := submitGrid(t, base, oneScenario)
	<-started // the one execution is in flight and blocked
	sr2 := submitGrid(t, base, oneScenario)
	waitForFlightWaiter(t)
	releaseOnce()

	st1, st2 := waitJob(t, base, sr1.Status), waitJob(t, base, sr2.Status)
	if st1.Ran+st2.Ran != 1 || st1.Cached+st2.Cached != 1 {
		t.Fatalf("exactly-once violated: job1=%+v job2=%+v", st1, st2)
	}
	if n := reg.Counter("sweep.service.executions").Value(); n != 1 {
		t.Fatalf("executions=%d, want exactly 1", n)
	}
	if n := reg.Counter("sweep.service.singleflight_hits").Value(); n != 1 {
		t.Fatalf("singleflight_hits=%d, want 1", n)
	}
	if len(started) != 0 {
		t.Fatal("a second execution started")
	}
}

// badGridBodies are POST /grids bodies the server answers with 400: an
// unknown family, an unknown field, bytes that are not JSON, and a grid
// followed by garbage or by a second object.
var badGridBodies = []string{
	`{"families":["nope"]}`, `{"unknown_field":1}`, `not json`,
	`{"families":["regular"]} garbage`, `{"families":["regular"]}{"ns":[16]}`,
}

// capacityGridBodies ask for more than a run can hold. The first two
// derive more vertices than a graph holds: 2⁶⁴ for hypercube 64 and
// (2³²)² for grid 2³², both of which wrap to 0 when computed unchecked.
// The third asks for a 2·10⁹-bit bandwidth, past sweep.MaxMsgBits, at
// which alg1 requests terabytes and the process dies of an
// out-of-memory error that no recover catches. The last two need more
// than sweep.MaxGraphEntries: a hard instance on 2³¹−1 vertices, whose
// 8 GiB degree array once ended the process, and K₄₆₀₀₀ with its
// 2.1·10⁹ directed edges.
var capacityGridBodies = []string{
	`{"families":["hypercube"],"params":[64],"engines":["alg1"]}`,
	`{"families":["grid"],"params":[4294967296],"engines":["alg1"]}`,
	`{"families":["regular"],"ns":[16],"params":[4],"engines":["alg1","tdma"],"msg_bits":2000000000}`,
	`{"families":["hard"],"ns":[2147483647],"params":[1],"engines":["congest"]}`,
	`{"families":["complete"],"ns":[46000],"engines":["congest"]}`,
}

// TestSweepdRejectsUnknownNames: a misspelled engine and workload beside
// known ones are refused with 400 naming a misspelling, not expanded to
// the one mis/alg1 scenario the known names make.
func TestSweepdRejectsUnknownNames(t *testing.T) {
	ts, _ := newTestDaemon(t, sweep.Options{Jobs: 1})
	body := `{"families":["regular"],"ns":[16],"params":[2],"epsilons":[0.1],` +
		`"engines":["alg1","tdmaa"],"workloads":["matchng","mis"],"base_seed":7}`
	resp, err := http.Post(ts.URL+"/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	named := strings.Contains(string(msg), "tdmaa") || strings.Contains(string(msg), "matchng")
	if resp.StatusCode != http.StatusBadRequest || !named {
		t.Fatalf("grid with misspelled names: %s %s, want 400 naming a misspelling", resp.Status, msg)
	}
}

// TestSweepdRejectsGraphsPastCapacity: a grid whose graphs cannot be
// built, or whose bandwidth no run can hold, is refused with 400 before
// any worker starts on it, and the daemon keeps serving.
func TestSweepdRejectsGraphsPastCapacity(t *testing.T) {
	ts, _ := newTestDaemon(t, sweep.Options{Jobs: 1})
	for _, body := range capacityGridBodies {
		resp, err := http.Post(ts.URL+"/grids", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("grid %s: %s %s, want 400", body, resp.Status, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after refused grids: %s", resp.Status)
	}
}

// TestSweepdBackpressureAndErrors covers the failure surface: 429 under
// backpressure, 400 on bad grids, 404 on unknown jobs, 409 reading
// records of a running job.
func TestSweepdBackpressureAndErrors(t *testing.T) {
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	ts, _ := newTestDaemon(t, sweep.Options{
		Jobs: 1, MaxPending: 1,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			<-release
			return fakeRecords(group), nil
		},
	})
	defer releaseOnce() // before the daemon's cleanup closes the service
	base := ts.URL
	oneScenario := `{"families":["regular"],"ns":[14],"params":[3],"epsilons":[0.1],"engines":["alg1"],"workloads":["gossip"],"rounds":2,"replicates":1,"base_seed":2023}`
	otherScenario := strings.Replace(oneScenario, `"base_seed":2023`, `"base_seed":2024`, 1)

	sr := submitGrid(t, base, oneScenario)

	// Queue full: the next submission bounces with 429.
	resp, err := http.Post(base+"/grids", "application/json", strings.NewReader(otherScenario))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %s, want 429", resp.Status)
	}

	// Records of a running job: 409.
	resp, err = http.Get(base + sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running-job records: %s, want 409", resp.Status)
	}

	// Bad grid bodies: 400.
	for _, body := range badGridBodies {
		resp, err := http.Post(base+"/grids", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad grid %q: %s, want 400", body, resp.Status)
		}
	}

	// Unknown job: 404.
	resp, err = http.Get(base + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s, want 404", resp.Status)
	}

	releaseOnce()
	waitJob(t, base, sr.Status)
}

// TestSweepdGridBounds: POST /grids refuses an oversized body and a
// grid above the service's MaxPending with 400 before expanding it, and
// accepts a grid exactly at the bound.
func TestSweepdGridBounds(t *testing.T) {
	ts, _ := newTestDaemon(t, sweep.Options{
		Jobs: 1, MaxPending: 4,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			return fakeRecords(group), nil
		},
	})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/grids", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	if code, msg := post(`{"families":["` + strings.Repeat("x", maxGridBody) + `"]}`); code != http.StatusBadRequest {
		t.Fatalf("oversized body: %d %s, want 400", code, msg)
	}
	// 2^40 replicates would allocate terabytes if expanded; the size
	// check answers from the axis lengths alone.
	start := time.Now()
	if code, msg := post(`{"replicates":1099511627776}`); code != http.StatusBadRequest || !strings.Contains(msg, "above the service bound") {
		t.Fatalf("huge grid: %d %s, want 400 from the size check", code, msg)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("huge grid took %v to refuse", took)
	}
	if code, msg := post(`{"replicates":5}`); code != http.StatusBadRequest {
		t.Fatalf("grid one above the bound: %d %s, want 400", code, msg)
	}
	sr := submitGrid(t, ts.URL, `{"replicates":4}`)
	if st := waitJob(t, ts.URL, sr.Status); st.Total != 4 || st.Failed != 0 {
		t.Fatalf("grid at the bound: %+v", st)
	}
}

// TestSweepdHealthz: liveness endpoint.
func TestSweepdHealthz(t *testing.T) {
	ts, _ := newTestDaemon(t, sweep.Options{Jobs: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %s %q", resp.Status, body)
	}
}

// TestSweepdClosesIdleConnections: the daemon's server hangs up on a
// keep-alive connection left idle past its idle timeout. The test runs
// the server main builds, with that timeout shortened so it need not
// wait minutes.
func TestSweepdClosesIdleConnections(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("server idle timeout %v, want the positive idleTimeout %v", srv.IdleTimeout, idleTimeout)
	}
	srv.IdleTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: sweepd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Close {
		t.Fatal("server closed the connection after the request; want keep-alive")
	}

	// Idle: the server, not the deadline, must end the connection.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read returned %v after %v, want EOF from the server closing it", err, time.Since(start))
	}
}

// TestSweepdJobRecordsFailedSlot: a failed slot on /jobs/{id}/records is
// a line naming its slot index, spec hash and error — the same three
// its event on /jobs/{id}/events carries — not a zero record that no
// decoder accepts. Slots keep submission order, one line each.
func TestSweepdJobRecordsFailedSlot(t *testing.T) {
	twoReplicates := `{"families":["regular"],"ns":[14],"params":[3],"epsilons":[0.1],"engines":["alg1"],"workloads":["gossip"],"rounds":2,"replicates":2,"base_seed":2023}`
	ts, _ := newTestDaemon(t, sweep.Options{
		Jobs: 1,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			if group[0].Replicate == 1 {
				return nil, errors.New("injected failure")
			}
			return fakeRecords(group), nil
		},
	})
	scenarios := testScenarios(t, twoReplicates)
	if len(scenarios) != 2 {
		t.Fatalf("expand: %d scenarios, want 2", len(scenarios))
	}

	sr := submitGrid(t, ts.URL, twoReplicates)
	if st := waitJob(t, ts.URL, sr.Status); st.Failed != 1 || st.Ran != 1 {
		t.Fatalf("job: %+v, want one ran and one failed", st)
	}
	resp, err := http.Get(ts.URL + sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("served %d lines, want one per slot:\n%s", len(lines), body)
	}
	if rec, err := sweep.DecodeRecord(lines[0]); err != nil || rec.Hash != scenarios[0].Hash() {
		t.Fatalf("slot 0: %v, %s", err, lines[0])
	}
	var failed failedSlot
	dec := json.NewDecoder(bytes.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&failed); err != nil {
		t.Fatalf("slot 1 is not a failed-slot line: %v: %s", err, lines[1])
	}
	if failed.Index != 1 || failed.Hash != scenarios[1].Hash() || !strings.Contains(failed.Error, "injected failure") {
		t.Fatalf("slot 1: %+v, want index 1, hash %s and the injected error", failed, scenarios[1].Hash())
	}

	resp, err = http.Get(ts.URL + sr.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var failedEvents int
	for dec := json.NewDecoder(resp.Body); ; {
		var ev jobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if ev.Hash != scenarios[ev.Index].Hash() {
			t.Fatalf("event for slot %d carries hash %q, want its spec hash", ev.Index, ev.Hash)
		}
		if ev.Error != "" {
			failedEvents++
			if ev.Index != failed.Index || ev.Error != failed.Error {
				t.Fatalf("failed event %+v disagrees with the records line %+v", ev, failed)
			}
		}
	}
	if failedEvents != 1 {
		t.Fatalf("%d failed events, want 1", failedEvents)
	}
}

// TestJobRecordsReadBackFromStore: a job's records are the store's. Once
// the store no longer serves them — here it is closed — Wait fails every
// slot of the completed job with a *sweep.MissingRecordError naming the
// slot's index and hash, and /jobs/{id}/records still answers 200 with
// one failed-slot line per slot, never a zero record.
func TestJobRecordsReadBackFromStore(t *testing.T) {
	store, err := sweep.OpenIndexed(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Options{
		Jobs: 2,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			return fakeRecords(group), nil
		},
	})
	ts := httptest.NewServer(newServer(store, svc, nil))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		store.Close()
	})
	scenarios := testScenarios(t, testGrid)
	sr := submitGrid(t, ts.URL, testGrid)
	if st := waitJob(t, ts.URL, sr.Status); st.Ran != len(scenarios) {
		t.Fatalf("job: %+v, want every slot ran", st)
	}
	job, ok := svc.Job(sr.Job)
	if !ok {
		t.Fatalf("no job %s", sr.Job)
	}
	if recs, _, err := job.Wait(); err != nil || recs[0].Hash != scenarios[0].Hash() {
		t.Fatalf("before the store closed: err %v, slot 0 hash %q", err, recs[0].Hash)
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := job.Wait()
	if st.Failed != len(scenarios) || st.Ran != 0 {
		t.Fatalf("stats %+v, want every slot failed", st)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok || len(joined.Unwrap()) != len(scenarios) {
		t.Fatalf("Wait: %v, want one failure per slot", err)
	}
	for i, err := range joined.Unwrap() {
		var missing *sweep.MissingRecordError
		if !errors.As(err, &missing) || missing.Index != i || missing.Hash != scenarios[i].Hash() || recs[i].Hash != "" {
			t.Fatalf("slot %d: %v (record hash %q), want a *sweep.MissingRecordError naming it", i, err, recs[i].Hash)
		}
	}

	resp, err := http.Get(ts.URL + sr.Records)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", sr.Records, resp.Status, err)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(scenarios) {
		t.Fatalf("served %d lines, want one per slot:\n%s", len(lines), body)
	}
	for i, line := range lines {
		var failed failedSlot
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&failed); err != nil {
			t.Fatalf("slot %d is not a failed-slot line: %v: %s", i, err, line)
		}
		want := (&sweep.MissingRecordError{Index: i, Hash: scenarios[i].Hash()}).Error()
		if failed.Index != i || failed.Hash != scenarios[i].Hash() || failed.Error != want {
			t.Fatalf("slot %d: %+v, want index %d, hash %s and error %q", i, failed, i, scenarios[i].Hash(), want)
		}
	}
}

// TestSweepdFollowsRunningJob streams a job while it runs, one slot
// released at a time. A subscriber opened right after POST /grids is
// served (never a 404) and gets each slot's line as the slot lands,
// with done counting 1..total. A subscriber cancelled mid-job returns
// while the job still runs, and one opened after completion gets the
// same bytes as the first.
func TestSweepdFollowsRunningJob(t *testing.T) {
	threeReplicates := `{"families":["regular"],"ns":[14],"params":[3],"epsilons":[0.1],"engines":["alg1"],"workloads":["gossip"],"rounds":2,"replicates":3,"base_seed":2023}`
	release := make(chan struct{})
	ts, _ := newTestDaemon(t, sweep.Options{
		Jobs: 1,
		ExecuteFunc: func(group []sweep.Scenario, _ sweep.ExecOptions) ([]sweep.Record, error) {
			<-release
			return fakeRecords(group), nil
		},
	})
	defer close(release) // before the daemon's cleanup closes the service
	client := &http.Client{Timeout: 60 * time.Second}

	sr := submitGrid(t, ts.URL, threeReplicates)
	resp, err := client.Get(ts.URL + sr.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events right after POST /grids: %s, want 200", resp.Status)
	}
	var stream bytes.Buffer
	lines := bufio.NewReader(resp.Body)
	for done := 1; done <= sr.Total; done++ {
		release <- struct{}{} // one slot lands
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("line %d: %v", done, err)
		}
		var ev jobEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Done != done || ev.Total != sr.Total {
			t.Fatalf("line %d: %s (%v), want done %d of %d", done, line, err, done, sr.Total)
		}
		stream.Write(line)
		if done == 1 {
			cancelledSubscriberReturns(t, ts, sr)
		}
	}
	if rest, err := io.ReadAll(lines); err != nil || len(rest) != 0 {
		t.Fatalf("after %d lines the stream went on: %q, %v", sr.Total, rest, err)
	}

	replay, err := client.Get(ts.URL + sr.Events)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(replay.Body)
	replay.Body.Close()
	if err != nil || !bytes.Equal(body, stream.Bytes()) {
		t.Fatalf("replay after completion (%v):\n%s\nwant the live stream:\n%s", err, body, stream.Bytes())
	}
}

// cancelledSubscriberReturns opens an events subscriber on a running
// job, cancels its request, and fails unless the handler returns while
// the job is still running.
func cancelledSubscriberReturns(t *testing.T, ts *httptest.Server, sr submitResponse) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		req := httptest.NewRequest(http.MethodGet, sr.Events, nil).WithContext(ctx)
		ts.Config.Handler.ServeHTTP(httptest.NewRecorder(), req)
	}()
	cancel()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("a cancelled subscriber did not return")
	}
	var st sweep.JobStatus
	getJSON(t, ts.URL+sr.Status, &st)
	if st.Complete {
		t.Fatalf("the job completed before its slots were released: %+v", st)
	}
}

// goldenStore writes the golden records of internal/sweep/testdata
// through IndexedStore.Put into a fresh store and returns its path.
func goldenStore(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "sweep", "testdata", "pr4_records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := sweep.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		rec, err := sweep.DecodeRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepdStoreScans pins the two whole-store reads byte for byte: GET
// /records on a store written by Put is the data file itself (a client
// may check a scan against the file's bytes), and GET /aggregate over
// the golden records is testdata/golden_aggregate.json.
func TestSweepdStoreScans(t *testing.T) {
	path := goldenStore(t)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, err := os.ReadFile(filepath.Join("..", "..", "internal", "sweep", "testdata", "golden_aggregate.json"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := sweep.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Options{Jobs: 1})
	ts := httptest.NewServer(newServer(store, svc, nil))
	defer func() {
		ts.Close()
		svc.Close()
		store.Close()
	}()

	for _, c := range []struct {
		path string
		want []byte
	}{{"/records", file}, {"/aggregate", wantAgg}} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, c.want) {
			t.Fatalf("GET %s: %s, %d bytes differ from the %d expected", c.path, resp.Status, len(got), len(c.want))
		}
	}
}

// countingStore is a StoreEngine whose scan counts the records it reads.
type countingStore struct {
	sweep.StoreEngine
	recs  []sweep.Record
	reads int
}

func (c *countingStore) All() iter.Seq[sweep.Record] {
	return func(yield func(sweep.Record) bool) {
		for _, rec := range c.recs {
			c.reads++
			if !yield(rec) {
				return
			}
		}
	}
}

// brokenWriter is a client that has gone away: every write fails.
type brokenWriter struct{ header http.Header }

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestSweepdRecordsStopsOnWriteError: /records stops reading the store
// at the first record it cannot write.
func TestSweepdRecordsStopsOnWriteError(t *testing.T) {
	store := &countingStore{recs: fakeRecords(testScenarios(t, testGrid))}
	srv := &server{store: store}
	srv.handleRecords(&brokenWriter{header: http.Header{}}, httptest.NewRequest("GET", "/records", nil))
	if store.reads != 1 {
		t.Fatalf("read %d of %d records for a client that took none, want 1", store.reads, len(store.recs))
	}
}

// FuzzGridRequest feeds arbitrary POST /grids bodies through the
// handler's decoder: decoding never panics, and a grid whose Size is
// within the default service bound expands without panicking to at
// most Size scenarios.
func FuzzGridRequest(f *testing.F) {
	f.Add([]byte(testGrid))
	for _, body := range badGridBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"replicates":1099511627776}`))
	for _, body := range capacityGridBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := decodeGrid(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		size := g.Size()
		if size > sweep.DefaultMaxPending {
			return
		}
		scenarios, err := g.Expand()
		if err == nil && len(scenarios) > size {
			t.Fatalf("grid %+v expanded to %d scenarios, above its Size %d", g, len(scenarios), size)
		}
	})
}
