package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

var processStart = time.Now()

// adminReports holds pluggable admin report pages: name → generator.
// Registered reports are served at /debug/<name> as plain text. Higher
// layers (the store's region report, say) register here so the telemetry
// package need not import them.
var (
	adminReportsMu sync.RWMutex
	adminReports   = map[string]func() string{}
)

// RegisterAdminReport publishes fn's output at /debug/<name> on every
// admin handler. Re-registering a name replaces the previous generator
// (a process hosting several stores reports the most recent one).
func RegisterAdminReport(name string, fn func() string) {
	adminReportsMu.Lock()
	defer adminReportsMu.Unlock()
	adminReports[name] = fn
}

// adminReport resolves a registered report generator (nil if absent).
func adminReport(name string) func() string {
	adminReportsMu.RLock()
	defer adminReportsMu.RUnlock()
	return adminReports[name]
}

// adminStreams holds pluggable streaming endpoints: name → handler,
// served at /stream/<name>. Unlike reports these get the raw
// ResponseWriter so they can flush chunked long-lived responses (the
// temporal subscribe feed).
var (
	adminStreamsMu sync.RWMutex
	adminStreams   = map[string]http.HandlerFunc{}
)

// RegisterAdminStream publishes a streaming handler at /stream/<name>
// on every admin handler. Re-registering a name replaces the handler.
func RegisterAdminStream(name string, h http.HandlerFunc) {
	adminStreamsMu.Lock()
	defer adminStreamsMu.Unlock()
	adminStreams[name] = h
}

// adminStream resolves a registered stream handler (nil if absent).
func adminStream(name string) http.HandlerFunc {
	adminStreamsMu.RLock()
	defer adminStreamsMu.RUnlock()
	return adminStreams[name]
}

// publishOnce guards the expvar publication (expvar panics on duplicate
// names, and tests may build several handlers).
var publishOnce sync.Once

// AdminHandler returns the admin mux:
//
//	/metrics       Prometheus text exposition of the default registry
//	/healthz       JSON liveness probe
//	/debug/vars       expvar JSON (includes zipg metrics + recent spans)
//	/debug/traces     recent query spans, one per line (?n=50)
//	/debug/trace/{id} one assembled distributed span tree, JSON
//	/debug/slow       slow-query ring, failures first (text)
//	/debug/pprof/     the standard net/http/pprof profiles
//	/debug/{name}     any report published via RegisterAdminReport
//	                  (zipg-server registers "regions": per-shard
//	                  sampling rate and region sizes)
//	/stream/{name}    any streaming handler published via
//	                  RegisterAdminStream (zipg-server registers
//	                  "subscribe": chunked NDJSON change feed)
func AdminHandler() http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("zipg_metrics", expvar.Func(func() any {
			return TakeSnapshot()
		}))
		expvar.Publish("zipg_spans", expvar.Func(func() any {
			spans := RecentSpans(32)
			out := make([]string, len(spans))
			for i := range spans {
				out[i] = spans[i].String()
			}
			return out
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, Default.Expose())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(processStart).Seconds(),
			"telemetry":      Enabled(),
		})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 50
		if q := r.URL.Query().Get("n"); q != "" {
			fmt.Sscanf(q, "%d", &n)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, sp := range RecentSpans(n) {
			fmt.Fprintln(w, sp.String())
		}
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		if raw == "" {
			// No ID: list recent trace IDs, newest first, as JSON.
			w.Header().Set("Content-Type", "application/json")
			ids := RecentTraces(50)
			out := make([]string, len(ids))
			for i := range ids {
				out[i] = ids[i].String()
			}
			json.NewEncoder(w).Encode(out)
			return
		}
		id, err := ParseTraceID(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tree := AssembleTrace(id)
		if tree == nil {
			http.Error(w, "trace not found (evicted or never sampled)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tree)
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# slow-query ring (threshold %s), failures first\n",
			time.Duration(slowThresholdNs.Load()))
		for _, sp := range SlowSpans() {
			fmt.Fprintln(w, sp.String())
		}
	})
	// Registered reports dispatch dynamically so registration order
	// relative to handler construction doesn't matter. ServeMux prefers
	// longer patterns, so the fixed /debug/ routes above still win.
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/debug/")
		fn := adminReport(name)
		if fn == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fn())
	})
	mux.HandleFunc("/stream/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/stream/")
		h := adminStream(name)
		if h == nil {
			http.NotFound(w, r)
			return
		}
		h(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin listener.
type AdminServer struct {
	Addr string // bound address, e.g. 127.0.0.1:39021
	srv  *http.Server
	ln   net.Listener
}

// ServeAdmin binds the admin endpoints on addr (e.g. "127.0.0.1:0" for
// an ephemeral port) and serves in the background.
func ServeAdmin(addr string) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen: %w", err)
	}
	srv := &http.Server{Handler: AdminHandler()}
	go srv.Serve(ln)
	return &AdminServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the admin listener.
func (a *AdminServer) Close() error { return a.srv.Close() }
