package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/result"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// sweepdSizes sizes sweepd-mixed. The fixture is slices × sliceReps
// quiet TDMA records on the hard family, each slice one grid a
// phase-(b) request resubmits whole. The phases run fixed operation
// counts rather than for a share of the run time: sweepd keeps every
// job it was given, so a time-boxed phase would make the daemon's
// memory follow the host's speed.
type sweepdSizes struct {
	slices, sliceReps int
	coldParam         int // hypercube dimension of the cold grids
	coldReps          int
	reads             int // phase (a), over both clients
	hits              int // phase (b), over both clients
	cold              int // phase (c)
	scans             int // phase (d)
}

// sizesFor gives the sizes for a run of the given seconds: the
// operation counts below are for 15 s, which they take on a quiet
// 2-vCPU Xeon VM, and scale with the run time.
func sizesFor(quick bool, seconds float64) sweepdSizes {
	if quick {
		return sweepdSizes{slices: 4, sliceReps: 16, coldParam: 4, coldReps: 1, reads: 40, hits: 4, cold: 2, scans: 1}
	}
	n := func(per15s int) int { return max(1, int(math.Round(float64(per15s)*seconds/15))) }
	return sweepdSizes{slices: 256, sliceReps: 256, coldParam: 6, coldReps: 8,
		reads: n(15000), hits: n(76), cold: n(46), scans: n(4)}
}

// Seed-derivation keys for the sweepd grids.
const (
	seedFixture = 0x666978 // "fix"
	seedCold    = 0x636f6c // "col"
)

// fixtureSlice is the k-th fixture grid: cheap quiet TDMA gossip on
// Lemma 14 hard instances.
func fixtureSlice(seed uint64, k int, sz sweepdSizes) sweep.Grid {
	return sweep.Grid{Families: []string{sweep.FamilyHard}, Ns: []int{16}, Params: []int{2},
		Epsilons: []float64{0}, Engines: []string{sweep.EngineTDMA}, Workloads: []string{sweep.WorkloadGossip},
		Rounds: 1, Replicates: sz.sliceReps, BaseSeed: rng.Mix(seed, seedFixture, uint64(k))}
}

// coldGrid is the j-th fresh grid of phase (c): both engines and both
// workloads on a hypercube over a noisy channel.
func coldGrid(seed uint64, j int, sz sweepdSizes) sweep.Grid {
	return sweep.Grid{Families: []string{sweep.FamilyHypercube}, Params: []int{sz.coldParam},
		Epsilons: []float64{0.05}, Engines: []string{sweep.EngineAlg1, sweep.EngineTDMA},
		Workloads:  []string{sweep.WorkloadGossip, sweep.WorkloadMIS},
		Replicates: sz.coldReps, BaseSeed: rng.Mix(seed, seedCold, uint64(j))}
}

// gridBody is the POST /grids request body.
type gridBody struct {
	Families   []string  `json:"families,omitempty"`
	Ns         []int     `json:"ns,omitempty"`
	Params     []int     `json:"params,omitempty"`
	Epsilons   []float64 `json:"epsilons,omitempty"`
	Engines    []string  `json:"engines,omitempty"`
	Workloads  []string  `json:"workloads,omitempty"`
	Rounds     int       `json:"rounds,omitempty"`
	Replicates int       `json:"replicates,omitempty"`
	BaseSeed   uint64    `json:"base_seed,omitempty"`
}

func bodyOf(g sweep.Grid) gridBody {
	return gridBody{Families: g.Families, Ns: g.Ns, Params: g.Params, Epsilons: g.Epsilons, Engines: g.Engines,
		Workloads: g.Workloads, Rounds: g.Rounds, Replicates: g.Replicates, BaseSeed: g.BaseSeed}
}

// jobEvent is one line of /jobs/{id}/events.
type jobEvent struct {
	Total  int    `json:"total"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// daemon is a running sweepd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once the child's stderr reaches EOF
	once    sync.Once
	err     error // the exit error, set by stop
	mu      sync.Mutex
	log     []string
}

// startDaemon spawns sweepd over store and returns it once /healthz
// answers 200, with the time that took.
func startDaemon(bin, store string, jobs int, hc *http.Client) (*daemon, float64, error) {
	cmd := exec.Command(bin, "-store", store, "-addr", "127.0.0.1:0", "-jobs", strconv.Itoa(jobs))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sweepd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				addr <- a // sweepd announces its address once
			}
			d.mu.Lock()
			d.log = append(d.log, sc.Text())
			d.mu.Unlock()
		}
	}()
	select {
	case d.addr = <-addr:
	case <-d.drained:
		d.stop()
		return nil, 0, fmt.Errorf("sweepd exited before serving: %s", d.logs())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, errors.New("sweepd did not announce its address within 60s")
	}
	for {
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start).Seconds(), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("sweepd /healthz not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "; ")
}

// stop shuts the daemon down the way an operator does (SIGTERM, which
// drains the service and closes the store), killing it if it has not
// exited within 30s, and waits for it. It returns the daemon's exit
// error, the same one on every call.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.drained:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.drained
		}
		d.err = d.cmd.Wait()
	})
	return d.err
}

// diedOfSIGTERM reports whether err is a child's death by SIGTERM's
// default action rather than an exit through its handler.
func diedOfSIGTERM(err error) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// checkSidecar checks that the store's index sidecar covers the whole
// data file: what sweepd's orderly shutdown leaves after appends.
func checkSidecar(store string, records int) error {
	f, err := os.Open(sweep.IndexPath(store))
	if err != nil {
		return fmt.Errorf("index sidecar: %w", err)
	}
	defer f.Close()
	var hdr struct {
		DataBytes int64 `json:"data_bytes"`
		Records   int   `json:"records"`
	}
	if err := json.NewDecoder(f).Decode(&hdr); err != nil {
		return fmt.Errorf("index sidecar header: %w", err)
	}
	fi, err := os.Stat(store)
	if err != nil {
		return err
	}
	if hdr.DataBytes != fi.Size() || hdr.Records != records {
		return fmt.Errorf("index sidecar covers %d bytes and %d records, the store holds %d bytes and %d records",
			hdr.DataBytes, hdr.Records, fi.Size(), records)
	}
	return nil
}

// peakRSSMB is the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// client issues the load: requests on at most two keep-alive
// connections, failures counted against the outcome.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *client) getJSON(path string, v any) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// sweepdRun is one sweepd-mixed measurement in progress.
type sweepdRun struct {
	cfg    config
	sz     sweepdSizes
	o      *outcome
	c      *client
	hashes []string // fixture record hashes: the point-read targets
	stored int      // records in the store once phase (c) is done
}

// runSweepd measures sweepd-mixed: a sweepd child serving a fixture
// store, driven by two closed-loop clients through four phases — (a)
// point reads, (b) full-hit grid resubmissions, (c) fresh grids on one
// client with point reads on the other, (d) full /records scans. The
// fixture (built in-process, untimed) and the daemon binary come
// first; set-up is then the median of setupRuns daemon starts.
func runSweepd(cfg config) (*outcome, error) {
	o := newOutcome(cfg.trace)
	sz := sizesFor(cfg.quick, cfg.seconds)

	bin := filepath.Join(cfg.work, "sweepd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sweepd")
	build.Dir, build.Stdout, build.Stderr = cfg.root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build sweepd: %w", err)
	}

	// The fixture: every slice expanded into one store, first-seen order.
	storePath := filepath.Join(cfg.work, "fixture.jsonl")
	store, err := sweep.OpenIndexed(storePath)
	if err != nil {
		return nil, err
	}
	var scs []sweep.Scenario
	for k := 0; k < sz.slices; k++ {
		s, err := fixtureSlice(cfg.seed, k, sz).Expand()
		if err != nil {
			store.Close()
			return nil, err
		}
		scs = append(scs, s...)
	}
	recs, st, err := sweep.Run(scs, store, sweep.Options{Jobs: cfg.nproc})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil || st.Ran != len(scs) {
		return nil, fmt.Errorf("fixture: %v (%s)", err, st)
	}
	fixtureDigest := digest(recs)
	hashes := make([]string, len(recs))
	for i, r := range recs {
		hashes[i] = r.Hash
	}
	fixtureBytes, err := os.ReadFile(storePath)
	if err != nil {
		return nil, err
	}
	fixtureSum := sha256.Sum256(fixtureBytes)

	// The in-process reference for phase (c)'s first grid.
	ref, err := coldGrid(cfg.seed, 0, sz).Expand()
	if err != nil {
		return nil, err
	}
	refRecs, _, err := sweep.Run(ref, sweep.NewMemStore(), sweep.Options{Jobs: cfg.nproc})
	if err != nil {
		return nil, fmt.Errorf("reference grid: %w", err)
	}
	refDigest := digest(refRecs)
	both := sha256.Sum256([]byte(fixtureDigest + refDigest))
	o.digest = hex.EncodeToString(both[:])
	cfg.logf("fixture: %d records, %d bytes; cold grid: %d scenarios; digest %s", len(recs), len(fixtureBytes), len(ref), o.digest)

	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 120 * time.Second}
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		// sweepd arms its SIGTERM handler on a goroutine of its own, so
		// a signal that lands just after /healthz first answers can
		// still find the default action and end the process. Between
		// these starts nothing is lost then: nothing has been appended.
		if d != nil {
			if err := d.stop(); err != nil && !diedOfSIGTERM(err) {
				return nil, fmt.Errorf("stop sweepd: %w (%s)", err, d.logs())
			}
		}
		var took float64
		d, took, err = startDaemon(bin, storePath, cfg.nproc, hc)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, took)
	}
	defer d.stop()
	cfg.logf("set-up: sweepd start to /healthz %v s", o.setup)

	r := &sweepdRun{cfg: cfg, sz: sz, o: o, c: &client{base: "http://" + d.addr, hc: hc}, hashes: hashes}
	if err := r.phases(fixtureSum, len(fixtureBytes), refDigest); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.e2e["peak_rss_mb"] = rss
	// After phase (c)'s appends the daemon must exit through its
	// handler, which rewrites the index sidecar.
	if err := d.stop(); err != nil {
		o.fail(1, "sweepd exit: %v (%s)", err, d.logs())
	} else if err := checkSidecar(storePath, r.stored); err != nil {
		o.fail(1, "sweepd exit: %v", err)
	}
	return o, nil
}

// phases runs (a) through (d) against the serving daemon.
func (r *sweepdRun) phases(fixtureSum [32]byte, fixtureLen int, refDigest string) error {
	cfg, o, sz := r.cfg, r.o, r.sz
	// The daemon's registry and allocation total, read between phases
	// in a traced run only.
	metrics := func() (snapshot, error) {
		var ms []obs.Metric
		if !cfg.trace {
			return nil, nil
		}
		err := r.c.getJSON("/metrics", &ms)
		return snap(ms), err
	}
	totalAlloc := func() (uint64, error) {
		var vars struct {
			Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
		}
		if !cfg.trace {
			return 0, nil
		}
		err := r.c.getJSON("/debug/vars", &vars)
		return vars.Memstats.TotalAlloc, err
	}
	alloc0, err := totalAlloc()
	if err != nil {
		return err
	}
	start := time.Now()

	// (a) point reads on both clients.
	phase := o.tr.open("phase.a.reads", 0, 0)
	var plain, traced []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, t := r.readLoop(uint64(cl), phase, func(i int) bool { return i >= (sz.reads+1-cl)/2 })
			mu.Lock()
			plain, traced = append(plain, p...), append(traced, t...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.tr.close(phase, "")
	mA, err := metrics()
	if err != nil {
		return err
	}

	// (b) full-hit resubmissions of fixture slices on both clients.
	phase = o.tr.open("phase.b.grid_hits", 0, 0)
	var hits []float64
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick := rand.New(rand.NewPCG(cfg.seed, 0xb0+uint64(cl)))
			var lats []float64
			for i := 0; i < (sz.hits+1-cl)/2; i++ {
				g := fixtureSlice(cfg.seed, pick.IntN(sz.slices), sz)
				_, lat, events, err := r.submit(g, phase, i, nil)
				if err == nil {
					err = checkEvents(events, sz.sliceReps, true)
				}
				if err != nil {
					o.fail(1, "phase b: %v", err)
					continue
				}
				lats = append(lats, lat)
			}
			mu.Lock()
			hits = append(hits, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	o.tr.close(phase, "")
	mB, err := metrics()
	if err != nil {
		return err
	}

	// (c) fresh grids on one client while the other keeps reading.
	phase = o.tr.open("phase.c.cold_grids", 0, 0)
	var jobs []string
	var refJob string // the job of grid 0, the one run in-process too
	var cold, busy []float64
	var depthMax float64
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, t := r.readLoop(0xc0, phase, func(int) bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
		busy = append(p, t...)
	}()
	// A traced run samples the service's queue depth right after each
	// submission, when it is deepest.
	var sampleDepth func()
	if cfg.trace {
		sampleDepth = func() {
			if m, err := metrics(); err == nil {
				depthMax = max(depthMax, m.val("sweep.service.queue_depth"))
			}
		}
	}
	cStart := time.Now()
	for j := 0; j < sz.cold; j++ {
		job, lat, events, err := r.submit(coldGrid(cfg.seed, j, sz), phase, j, sampleDepth)
		if err == nil {
			err = checkEvents(events, 0, false)
		}
		if err != nil {
			o.fail(1, "phase c: %v", err)
			continue
		}
		if j == 0 {
			refJob = job
		}
		jobs = append(jobs, job)
		cold = append(cold, lat)
	}
	cWall := time.Since(cStart).Seconds()
	close(done)
	wg.Wait()
	o.tr.close(phase, "")
	mC, err := metrics()
	if err != nil {
		return err
	}
	// Throughput reads the scenarios the daemon ran at their classes'
	// best rates, for the reason the rates type gives.
	var coldRates rates
	var coldRecs []sweep.Record
	for _, job := range jobs {
		recs, err := r.jobRecords(job)
		if err == nil && job == refJob && digest(recs) != refDigest {
			err = fmt.Errorf("job %s records digest %s differs from the in-process run's %s", job, digest(recs), refDigest)
		}
		if err != nil {
			o.fail(1, "phase c: %v", err)
			continue
		}
		o.checkRecords("phase c job "+job, recs, sweep.Stats{}, nil)
		coldRates.observe(recs)
		coldRecs = append(coldRecs, recs...)
	}
	nodeRounds := nodeRoundsOf(coldRecs)
	o.throughput(len(coldRecs), nodeRounds, coldRates.busy(coldRecs), cfg.nproc, coldRates.samples)

	// (d) full scans on one client.
	phase = o.tr.open("phase.d.scans", 0, 0)
	var scans []float64
	r.stored = len(r.hashes) + len(coldRecs)
	for i := 0; i < sz.scans; i++ {
		o.attempt(1)
		sp := o.tr.open("http.records_scan", phase, i)
		t := time.Now()
		body, err := r.c.get("/records")
		lat := time.Since(t).Seconds()
		o.tr.close(sp, "")
		if err == nil {
			err = checkScan(body, fixtureSum, fixtureLen, r.stored)
		}
		if err != nil {
			o.fail(1, "phase d: %v", err)
			continue
		}
		scans = append(scans, lat)
	}
	o.tr.close(phase, "")
	wall := time.Since(start).Seconds()
	alloc1, err := totalAlloc()
	if err != nil {
		return err
	}

	for _, l := range []struct {
		name string
		lats []float64
	}{{"read", plain}, {"read_busy", busy}, {"grid_hit", hits}, {"grid_cold", cold}, {"scan", scans}} {
		o.addLatency(l.name, l.lats)
	}
	cfg.logf("phase (c): %d cold grids, %d scenarios in %.3fs (%.4g scenarios/s overall)", len(jobs), len(coldRecs), cWall, float64(len(coldRecs))/cWall)

	if cfg.trace {
		o.table = engineLayers(mC.since(mB), cWall*float64(cfg.nproc), float64(len(jobs)), nodeRounds, o.layers)
		svc := mC.since(mA)
		grids := float64(len(hits) + len(jobs))
		execs, storeHits := svc.val("sweep.service.executions"), svc.val("sweep.service.store_hits")
		o.layers["sweep.service.executions"] = ratio(execs, grids)
		o.layers["sweep.service.store_hits"] = ratio(storeHits, grids)
		o.layers["sweep.service.singleflight_hits"] = ratio(svc.val("sweep.service.singleflight_hits"), grids)
		o.layers["sweep.service.queue_depth_max"] = depthMax
		o.layers["sweep.store.hit_ratio"] = ratio(storeHits, storeHits+execs)
		if execs > 0 {
			o.layers["sweep.batch.lanes_per_group"] = 1 // the service runs every scenario on its own
		}
		clients := wall * 2
		table := []result.Layer{{Name: "clients", TotalS: clients}}
		busyS := 0.0
		for _, route := range []string{"http.records_get", "http.grids_post", "http.job_events", "http.records_scan"} {
			t := o.tr.total(route)
			busyS += t
			o.layers[route+"_share"] = ratio(t, clients)
			table = append(table, result.Layer{Name: route, Parent: "clients", TotalS: t, SelfS: t, Share: ratio(t, clients)})
		}
		table[0].SelfS, table[0].Share = clients-busyS, ratio(clients-busyS, clients)
		o.table = append(o.table, table...)
		o.layers["process.alloc_bytes"] = ratio(float64(alloc1-alloc0), float64(o.attempted))
		o.layers["trace.overhead"] = result.Median(traced)/result.Median(plain) - 1
	}
	return nil
}

// readLoop issues point reads of random fixture records until stop(i)
// holds before read i. In a traced run every second read records a
// span, and the traced and untraced latencies come back apart.
func (r *sweepdRun) readLoop(stream uint64, parent int, stop func(i int) bool) (plain, traced []float64) {
	pick := rand.New(rand.NewPCG(r.cfg.seed, 0xa0+stream))
	for i := 0; !stop(i); i++ {
		hash := r.hashes[pick.IntN(len(r.hashes))]
		withSpan := r.cfg.trace && i%2 == 1
		sp := 0
		if withSpan {
			sp = r.o.tr.open("http.records_get", parent, i)
		}
		r.o.attempt(1)
		t := time.Now()
		body, err := r.c.get("/records/" + hash)
		lat := time.Since(t).Seconds()
		r.o.tr.close(sp, "")
		if err == nil {
			var rec sweep.Record
			if rec, err = sweep.DecodeRecord(body); err == nil && rec.Hash != hash {
				err = fmt.Errorf("GET /records/%s returned record %s", hash, rec.Hash)
			}
		}
		if err != nil {
			r.o.fail(1, "read: %v", err)
			continue
		}
		if withSpan {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}
	}
	return plain, traced
}

// submit posts a grid and follows its event stream to the end,
// returning the job, the latency from POST to the stream's end, and the
// events. afterPost, if set, runs between the two requests.
func (r *sweepdRun) submit(g sweep.Grid, parent, req int, afterPost func()) (string, float64, []jobEvent, error) {
	r.o.attempt(2)
	b, err := json.Marshal(bodyOf(g))
	if err != nil {
		return "", 0, nil, err
	}
	grid := r.o.tr.open("grid", parent, req)
	post := r.o.tr.open("http.grids_post", grid, req)
	t := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, r.c.base+"/grids", bytes.NewReader(b))
	if err != nil {
		return "", 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	body, err := r.c.do(hreq)
	var handle struct {
		Job string `json:"job"`
	}
	if err == nil {
		err = json.Unmarshal(body, &handle)
	}
	r.o.tr.close(post, handle.Job)
	if err != nil {
		r.o.tr.close(grid, "")
		return "", 0, nil, err
	}
	if afterPost != nil {
		afterPost()
	}
	events := r.o.tr.open("http.job_events", grid, req)
	body, err = r.c.get("/jobs/" + handle.Job + "/events")
	lat := time.Since(t).Seconds()
	r.o.tr.close(events, handle.Job)
	r.o.tr.close(grid, handle.Job)
	if err != nil {
		return "", 0, nil, err
	}
	var evs []jobEvent
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev jobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", 0, nil, fmt.Errorf("job %s events: %w", handle.Job, err)
		}
		evs = append(evs, ev)
	}
	return handle.Job, lat, evs, nil
}

// checkEvents checks a finished job's event stream: one event per
// scenario, none failed, and — for a resubmission of stored work — all
// served from the store. want 0 takes the count from the events.
func checkEvents(evs []jobEvent, want int, allCached bool) error {
	if len(evs) == 0 {
		return errors.New("empty event stream")
	}
	if want == 0 {
		want = evs[0].Total
	}
	if len(evs) != want {
		return fmt.Errorf("%d events for %d scenarios", len(evs), want)
	}
	for _, ev := range evs {
		if ev.Error != "" {
			return fmt.Errorf("scenario failed: %s", ev.Error)
		}
		if allCached && !ev.Cached {
			return errors.New("a resubmitted scenario was executed instead of served from the store")
		}
	}
	return nil
}

// jobRecords fetches a completed job's records, each checked against
// its content hash.
func (r *sweepdRun) jobRecords(job string) ([]sweep.Record, error) {
	r.o.attempt(1)
	body, err := r.c.get("/jobs/" + job + "/records")
	if err != nil {
		return nil, err
	}
	var recs []sweep.Record
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		rec, err := sweep.DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", job, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkScan checks a /records scan: the fixture comes back byte for
// byte, in store order, followed by the records phase (c) added.
func checkScan(body []byte, fixtureSum [32]byte, fixtureLen, wantLines int) error {
	if len(body) < fixtureLen || sha256.Sum256(body[:fixtureLen]) != fixtureSum {
		return errors.New("GET /records: the fixture does not come back byte-identical")
	}
	if n := bytes.Count(body, []byte("\n")); n != wantLines {
		return fmt.Errorf("GET /records: %d records, want %d", n, wantLines)
	}
	return nil
}
