package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewDebugMux returns an http mux serving the live debug surface:
//
//	/debug/metrics   JSON Snapshot of the registry
//	/debug/trace     recent tracer events (?n=K limits to the last K)
//	/debug/pprof/*   the standard net/http/pprof handlers
//
// Either argument may be nil, in which case the corresponding endpoint
// serves an empty document.
func NewDebugMux(r *Registry, t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		events := t.Events()
		if s := req.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(events) {
				events = events[len(events)-n:]
			}
		}
		writeJSON(w, struct {
			Total   uint64  `json:"total"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{t.Total(), t.Dropped(), events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// DebugServer is a running debug HTTP server.
type DebugServer struct {
	srv *http.Server
	l   net.Listener
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.l.Addr().String() }

// Close shuts the server down immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }

// ServeDebug binds addr (e.g. "localhost:6060" or ":0") and serves the
// debug mux on it in a background goroutine until Close.
func ServeDebug(addr string, r *Registry, t *Tracer) (*DebugServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(r, t), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(l) //nolint:errcheck // ErrServerClosed on Close
	return &DebugServer{srv: srv, l: l}, nil
}
