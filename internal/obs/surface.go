package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
)

// Surface is the service's one HTTP surface: a route table that doubles as
// the JSON endpoint index (GET /) and as the bounded label space of the
// per-route HTTP request metrics, plus the /metrics exposition and the
// optional pprof endpoints. Route sets (the single-run profile, the fleet,
// the archive, alerts, the flight recorder, the UI) mount themselves on it;
// none keeps a mux of its own. Mount everything before serving traffic.
type Surface struct {
	name    string
	mux     *http.ServeMux
	routes  []Route
	reg     *Registry
	httpm   *HTTPMetrics
	writers []func(io.Writer)
}

// NewSurface returns a surface announcing itself as name in its index. With
// a registry, /metrics renders it (after any AddMetricsText writers) and
// every request is counted per route; reg may be nil.
func NewSurface(name string, reg *Registry) *Surface {
	s := &Surface{name: name, mux: http.NewServeMux(), reg: reg}
	if reg != nil {
		s.httpm = NewHTTPMetrics(reg)
		RegisterBuildInfo(reg)
	}
	s.Handle("/metrics", "Prometheus text exposition", http.HandlerFunc(s.serveMetrics))
	s.Handle("/", "this endpoint index (JSON)", http.HandlerFunc(s.serveIndex))
	return s
}

// Registry returns the registry behind /metrics (nil when none).
func (s *Surface) Registry() *Registry { return s.reg }

// Handle mounts h at path and lists it in the index with desc.
func (s *Surface) Handle(path, desc string, h http.Handler) {
	s.mux.Handle(path, h)
	s.routes = append(s.routes, Route{Path: path, Desc: desc})
}

// EnablePprof mounts the net/http/pprof endpoints under /debug/pprof/, so
// the service can itself be profiled while it characterizes runs.
func (s *Surface) EnablePprof() {
	s.Handle("/debug/pprof/", "net/http/pprof profiling index", http.HandlerFunc(pprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// AddMetricsText registers a writer of hand-rolled exposition families;
// every /metrics scrape runs the writers in order, before the registry.
func (s *Surface) AddMetricsText(fn func(io.Writer)) { s.writers = append(s.writers, fn) }

// ServeHTTP implements http.Handler, instrumenting every request against its
// mounted route when a registry is attached.
func (s *Surface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpm.Serve(RouteLabel(s.routes, r.URL.Path), s.mux, w, r)
}

func (s *Surface) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	for _, fn := range s.writers {
		fn(&buf)
	}
	_ = s.reg.WriteText(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// serveIndex serves the JSON endpoint index: every mounted route with its
// one-line description, sorted by path. Unknown paths answer 404.
func (s *Surface) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	routes := append([]Route(nil), s.routes...)
	sort.Slice(routes, func(i, j int) bool { return routes[i].Path < routes[j].Path })
	ver, gover := BuildInfo()
	WriteJSON(w, struct {
		Service   string  `json:"service"`
		Version   string  `json:"version"`
		GoVersion string  `json:"go_version"`
		Endpoints []Route `json:"endpoints"`
	}{s.name, ver, gover, routes})
}

// WriteJSON writes v as indented JSON with the JSON content type — the one
// encoding every JSON endpoint of the surface answers in.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	WriteJSONBody(w, v)
}

// WriteJSONBody writes v as indented JSON, for handlers that set their own
// headers and status first.
func WriteJSONBody(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
