package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Handler serves the engine's /health document: JSON by default,
// Prometheus text exposition with ?format=prom. A nil engine serves the
// empty healthy document, so callers can mount unconditionally.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := e.Status()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writeStatusProm(w, s)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s)
	})
}

// writeStatusProm renders the health document as Prometheus text
// exposition, one health_incidents series per detector+severity pair in
// Status.Series' sorted order.
func writeStatusProm(w http.ResponseWriter, s Status) {
	healthy := 0
	if s.Healthy {
		healthy = 1
	}
	fmt.Fprintf(w, "# TYPE health_healthy gauge\nhealth_healthy %d\n", healthy)
	fmt.Fprintf(w, "# TYPE health_incidents_open gauge\nhealth_incidents_open %d\n", s.Open)
	fmt.Fprintf(w, "# TYPE health_incidents_total counter\nhealth_incidents_total %d\n", s.Total)
	fmt.Fprintf(w, "# TYPE health_blackbox_dumps counter\nhealth_blackbox_dumps %d\n", s.Dumps)
	if len(s.Series) > 0 {
		fmt.Fprintf(w, "# TYPE health_incidents counter\n")
		for _, c := range s.Series {
			fmt.Fprintf(w, "health_incidents{detector=\"%s\",severity=\"%s\"} %d\n",
				escapeLabel(c.Detector), escapeLabel(c.Severity.String()), c.N)
		}
	}
}

// escapeLabel escapes a Prometheus label value (backslash, quote,
// newline — the exposition-format escape set).
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
