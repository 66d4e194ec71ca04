// Command sweepd is the sweep-as-a-service daemon: a long-running HTTP
// server over one content-addressed result store. It serves record and
// aggregate reads at interactive latency (the store opens through its
// sidecar offset index — sweep.IndexedStore — so lookups are disk seeks,
// not a full corpus load), accepts grid submissions that execute through
// the resident sweep.Service scheduler with bounded backpressure, and
// dedupes identical in-flight scenarios across concurrent requests by
// content hash (request-level singleflight). Each submission is one
// sweep.Job, its own event log: /jobs/{id}/events replays it from the
// first slot and follows it live, and /progress sums every job's status.
// Determinism makes the whole surface trivially cacheable: a record is a
// pure function of its spec hash, so responses never go stale and
// identical grids submitted twice cost one execution and N-1 lookups.
//
// Usage:
//
//	sweepd -store results.jsonl -addr localhost:8344
//
// Submit a grid and follow it:
//
//	curl -s -X POST localhost:8344/grids -d '{
//	  "families": ["regular"], "ns": [16, 24], "params": [2],
//	  "epsilons": [0, 0.1], "engines": ["alg1", "tdma"],
//	  "workloads": ["gossip"], "rounds": 2, "base_seed": 7}'
//	curl -s localhost:8344/jobs/j1               # poll progress
//	curl -sN localhost:8344/jobs/j1/events       # or stream it (NDJSON)
//	curl -s localhost:8344/jobs/j1/records       # completed records
//	curl -s localhost:8344/records/<hash>        # point read
//	curl -s localhost:8344/aggregate             # whole-store aggregate
//	curl -s localhost:8344/metrics               # obs registry snapshot
//
// Records served or produced here are byte-identical to cmd/sweep batch
// runs over the same specs — the store format, hashes, and execution
// path are shared; only the scheduling differs (-jobs, and -workers, the
// width of each scenario's engine pool and graph build). -compact
// rewrites the store (dropping torn/duplicate/invalid lines) and
// installs a fresh index before serving.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	var (
		storePath  = flag.String("store", "", "JSONL result store path (required; created if absent)")
		addr       = flag.String("addr", "localhost:8344", "HTTP listen address")
		jobs       = flag.Int("jobs", 0, "concurrent scenario executions (0 = one per CPU)")
		workers    = flag.Int("workers", 0, "per-scenario engine and graph-generation workers (0 = auto: serial when jobs > 1)")
		maxPending = flag.Int("maxpending", sweep.DefaultMaxPending, "max queued+running scenarios before submissions get 429 (backpressure bound)")
		compact    = flag.Bool("compact", false, "compact the store (drop torn/duplicate/invalid lines) and rebuild its index before serving")
	)
	flag.Parse()
	if *storePath == "" {
		fatal(fmt.Errorf("-store is required"))
	}

	if *compact {
		if _, err := os.Stat(*storePath); err == nil {
			cs, err := sweep.Compact(*storePath)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "sweepd: compacted %s: %s\n", *storePath, cs)
		}
	}
	store, err := sweep.OpenIndexed(*storePath)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if d := store.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: store %s: dropped %d invalid line(s) during index rebuild\n", *storePath, d)
	}

	reg := obs.NewRegistry()
	svc := sweep.NewService(store, sweep.Options{
		Jobs: *jobs, Workers: *workers, MaxPending: *maxPending, Metrics: reg,
	})
	defer svc.Close()

	srv := newServer(store, svc, reg)
	// Orderly shutdown on SIGINT/SIGTERM: stop the listener so the
	// deferred service drain and store close (index sidecar rewrite) run
	// instead of dying mid-append. The handler is armed before the
	// listener exists, so a signal that lands as soon as /healthz can
	// answer never takes the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepd: store %s (%d records), serving on http://%s\n",
		*storePath, store.Len(), ln.Addr())

	httpSrv := newHTTPServer(srv)
	go func() {
		<-sig
		httpSrv.Close()
	}()
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sweepd: shutting down")
}

// Connection timeouts. Without them a client that opens a connection
// and never finishes its headers, or leaves a keep-alive connection idle,
// would hold it forever. There is no write timeout: it would cut the
// /jobs/{id}/events streams, which stay open for a whole job.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection may wait for
	// its next request.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server over handler h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(1)
}
