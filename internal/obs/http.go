package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewHTTPHandler serves the observability surface:
//
//	/metrics        expvar-style JSON snapshot of the registry
//	/metrics?format=prom  the same snapshot in Prometheus text exposition
//	/trace          the retained span ring as JSONL (meta line + spans)
//	/debug/pprof/*  the standard Go profiler endpoints
//
// Either reg or tr may be nil; the corresponding endpoint then serves
// an empty document.
func NewHTTPHandler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if snap == nil {
			snap = map[string]interface{}{}
		}
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WriteProm(w, snap)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if tr != nil {
			tr.WriteJSONL(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the observability endpoint on addr (":0" picks a free
// port) in a background goroutine and returns the bound address. The
// server lives until the process exits — it is a diagnostics side-car,
// not a managed service.
func Serve(addr string, reg *Registry, tr *Tracer) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: NewHTTPHandler(reg, tr)}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
