package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// This file is the live endpoint: Prometheus text exposition, a JSON
// snapshot, and net/http/pprof — the ROADMAP's "observability endpoint"
// item. Serving is read-only over snapshots; scrapes never block the
// simulation (instrument operations are atomics).

// Handler serves a registry:
//
//	/metrics        Prometheus text exposition (everything, plus the Go
//	                runtime's heap and GC readings — Snapshot.WithRuntime)
//	/metrics.json   the JSON Snapshot, with the same runtime readings
//	/metrics.det    DeterministicText (the determinism-checked subset)
//	/debug/pprof/*  the standard pprof handlers
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Snapshot().WithRuntime().PrometheusText()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot().WithRuntime())
	})
	mux.HandleFunc("/metrics.det", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(r.Snapshot().DeterministicText()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a live metrics endpoint bound to a listener.
type Server struct {
	srv  *http.Server
	addr net.Addr
}

// Serve binds addr (host:port; port 0 picks an ephemeral one) and serves
// Handler(r) in a background goroutine. The returned Server reports the
// bound address — the part a CI scrape or an operator needs when the
// port was ephemeral.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, addr: ln.Addr()}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.addr }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
