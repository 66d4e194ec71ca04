package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// expvar publishes into a process-global namespace, so the registry
// behind "telemetry" is an atomic pointer swapped per Serve rather than
// a second Publish (which panics on duplicates).
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// Server is the opt-in -telemetry introspection listener: /metrics
// (registry snapshot JSON), /progress (live run progress), /debug/vars
// (expvar), and /debug/pprof. It binds its own mux, so enabling
// telemetry never touches http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the introspection endpoints as a mountable
// http.Handler: /metrics (registry snapshot JSON), /progress (the JSON
// of whatever progress returns, called per request), /debug/vars
// (expvar), and /debug/pprof/*. Serve binds it to a private listener
// for the CLIs; cmd/sweepd mounts the same handler inside its own mux
// so one server exposes both the sweep API and the telemetry plumbing.
func Handler(reg *Registry, progress func() any) http.Handler {
	expvarOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
	expvarReg.Store(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "telemetry endpoints:\n  /metrics\n  /progress\n  /debug/vars\n  /debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(progress())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the introspection server on addr (e.g. "localhost:6060";
// ":0" picks a free port — read it back from Addr), serving Handler(reg,
// progress).
func Serve(addr string, reg *Registry, progress func() any) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listener: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg, progress)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
