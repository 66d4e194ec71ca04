package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// server is the sweepd HTTP surface over one StoreEngine and one
// long-lived sweep.Service. All endpoints are JSON; list-shaped
// responses are JSONL so they stream.
//
//	GET  /healthz             liveness
//	GET  /records             every stored record (JSONL, streamed)
//	GET  /records/{hash}      one record by content hash
//	GET  /aggregate           sweep.Aggregate over one scan of the store
//	POST /grids               submit a grid (JSON body) -> job handle
//	GET  /jobs/{id}           job progress snapshot
//	GET  /jobs/{id}/events    streaming progress (NDJSON, one line/event)
//	GET  /jobs/{id}/records   completed job: one line per slot (JSONL)
//	GET  /metrics, /progress, /debug/...   obs.Handler plumbing
//
// The job endpoints read the sweep.Job itself: the server keeps no
// per-job state.
type server struct {
	store sweep.StoreEngine
	svc   *sweep.Service
	mux   *http.ServeMux
	start time.Time
}

// newServer wires the HTTP surface. reg may be nil (telemetry off —
// /metrics then serves an empty snapshot, the obs nil contract).
func newServer(store sweep.StoreEngine, svc *sweep.Service, reg *obs.Registry) *server {
	s := &server{store: store, svc: svc, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /records", s.handleRecords)
	s.mux.HandleFunc("GET /records/{hash}", s.handleRecord)
	s.mux.HandleFunc("GET /aggregate", s.handleAggregate)
	s.mux.HandleFunc("POST /grids", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /jobs/{id}/records", s.handleJobRecords)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	// The telemetry plumbing rides the same listener: the obs endpoints
	// are one mountable handler shared with the -telemetry CLIs.
	obsHandler := obs.Handler(reg, s.progress)
	s.mux.Handle("GET /metrics", obsHandler)
	s.mux.Handle("GET /progress", obsHandler)
	s.mux.Handle("GET /debug/", obsHandler)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleRecords streams every stored record as JSONL, first-seen order:
// each record is encoded as the store scan yields it, so the response
// never holds the store in memory.
func (s *server) handleRecords(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	for rec := range s.store.All() {
		if err := sweep.EncodeJSONL(w, rec); err != nil {
			return // client went away: stop reading the store
		}
	}
}

// handleRecord serves one record by content hash: the interactive-read
// path, a single index lookup plus (for the indexed engine) one seek.
func (s *server) handleRecord(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok := s.store.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no record for hash %q", hash))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleAggregate serves the group-by aggregation of the whole store,
// reduced from one scan.
func (s *server) handleAggregate(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sweep.Aggregate(s.store.All()))
}

// submitResponse is the POST /grids reply: the job handle and where to
// follow it.
type submitResponse struct {
	Job     string `json:"job"`
	Total   int    `json:"total"`
	Unique  int    `json:"unique"`
	Status  string `json:"status"`
	Events  string `json:"events"`
	Records string `json:"records"`
}

// maxGridBody bounds a POST /grids body. A grid is a handful of axis
// lists; the bound only has to stop a client from making the server
// buffer an arbitrarily large body.
const maxGridBody = 1 << 20

// decodeGrid reads a POST /grids body: at most maxGridBody bytes of one
// sweep.Grid in its JSON form (axis defaults as Grid.Expand's), with
// unknown fields and anything but whitespace after the grid refused. w,
// which may be nil, is told when the body runs past the cap, so the
// server closes the connection.
func decodeGrid(w http.ResponseWriter, body io.ReadCloser) (sweep.Grid, error) {
	var g sweep.Grid
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxGridBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return sweep.Grid{}, fmt.Errorf("bad grid body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return sweep.Grid{}, errors.New("bad grid body: data after the grid")
	}
	return g, nil
}

// handleSubmit expands a grid and submits it to the service: 202 with a
// job handle, 400 on a bad grid (including one larger than the
// service's MaxPending, refused before it is expanded), 429 under
// backpressure.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	g, err := decodeGrid(w, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if size, limit := g.Size(), s.svc.MaxPending(); size > limit {
		writeError(w, http.StatusBadRequest, fmt.Errorf("grid expands to up to %d scenarios, above the service bound of %d", size, limit))
		return
	}
	scenarios, err := g.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.svc.Submit(scenarios)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, sweep.ErrBackpressure) {
			status = http.StatusTooManyRequests
		} else if errors.Is(err, sweep.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	st := job.Status()
	writeJSON(w, http.StatusAccepted, submitResponse{
		Job: job.ID(), Total: st.Total, Unique: st.Unique, Status: "/jobs/" + job.ID(),
		Events: "/jobs/" + job.ID() + "/events", Records: "/jobs/" + job.ID() + "/records",
	})
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*sweep.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.svc.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return job, ok
}

// handleJob serves a progress snapshot: the polling path.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleJobs lists accepted job IDs in submission order.
func (s *server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"jobs": s.svc.JobIDs()})
}

// progressBody is the /progress body: every accepted job's counts
// summed, on a clock started with the server.
type progressBody struct {
	Total     int   `json:"total"`
	Done      int   `json:"done"`
	Cached    int   `json:"cached"`
	Ran       int   `json:"ran"`
	Failed    int   `json:"failed"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

func (s *server) progress() any {
	p := progressBody{ElapsedMS: time.Since(s.start).Milliseconds()}
	for _, id := range s.svc.JobIDs() {
		if job, ok := s.svc.Job(id); ok {
			st := job.Status()
			p.Total += st.Total
			p.Done += st.Done
			p.Cached += st.Cached
			p.Ran += st.Ran
			p.Failed += st.Failed
		}
	}
	return p
}

// jobEvent is one NDJSON progress line on /jobs/{id}/events. Hash is
// the slot's spec hash, which is also its record's.
type jobEvent struct {
	Index  int    `json:"index"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Cached bool   `json:"cached"`
	Hash   string `json:"hash,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleJobEvents streams the job's landings as NDJSON, one line per
// slot, flushed as it lands, until every slot has landed or the client
// disconnects. The headers go out at once, so a subscriber knows the
// stream is open before its first slot lands. Every subscriber replays
// from the start: the job is a log, not a queue.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := http.NewResponseController(w).Flush
	flush()
	for ev := range job.Events(r.Context()) {
		line := jobEvent{Index: ev.Index, Done: ev.Done, Total: ev.Total, Cached: ev.Cached, Hash: ev.Hash}
		if ev.Err != nil {
			line.Error = ev.Err.Error()
		}
		if err := sweep.EncodeJSONL(w, line); err != nil {
			return
		}
		flush()
	}
}

// failedSlot is the /jobs/{id}/records line of a slot whose scenario
// failed: no record exists, so the line names the slot, its spec hash
// and the failure, as the slot's event on /jobs/{id}/events did.
type failedSlot struct {
	Index int    `json:"index"`
	Hash  string `json:"hash"`
	Error string `json:"error"`
}

// handleJobRecords serves a completed job as JSONL, one line per slot in
// submission order: the slot's record, which Job.Wait reads back from
// the store, or a failedSlot line — for a slot that failed, or one whose
// record the store no longer serves; 409 while the job is still running.
func (s *server) handleJobRecords(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	st := job.Status()
	if !st.Complete {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s still running (%d/%d)", st.ID, st.Done, st.Total))
		return
	}
	recs, _, _ := job.Wait() // complete: returns at once
	failed := make(map[int]failedSlot)
	for ev := range job.Events(r.Context()) {
		if err := ev.Err; recs[ev.Index].Hash == "" {
			if err == nil { // landed, but the store no longer serves its record
				err = &sweep.MissingRecordError{Index: ev.Index, Hash: ev.Hash}
			}
			failed[ev.Index] = failedSlot{Index: ev.Index, Hash: ev.Hash, Error: err.Error()}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i, rec := range recs {
		var line any = rec
		if slot, ok := failed[i]; ok {
			line = slot
		}
		if err := sweep.EncodeJSONL(w, line); err != nil {
			return
		}
	}
}
