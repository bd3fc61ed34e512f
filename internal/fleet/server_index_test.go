package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"grade10/internal/obs"
)

// serveFleet mounts the fleet routes on a fresh surface; reg may be nil.
func serveFleet(f *Fleet, reg *obs.Registry) *obs.Surface {
	s := obs.NewSurface("grade10 fleet characterization", reg)
	Mount(s, f)
	return s
}

// TestFleetServerIndexJSON: GET / on the fleet server answers the JSON
// endpoint index; unknown paths answer 404; with a registry attached the
// per-route HTTP request families appear on /metrics.
func TestFleetServerIndexJSON(t *testing.T) {
	srv := serveFleet(New(Config{MaxActive: 1, QueueDepth: 1}), obs.NewRegistry())

	do := func(path string) (int, string, http.Header) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String(), rec.Header()
	}

	code, body, hdr := do("/")
	if code != http.StatusOK {
		t.Fatalf("GET /: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("index content type %q", ct)
	}
	var idx struct {
		Service   string      `json:"service"`
		Endpoints []obs.Route `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, body)
	}
	paths := map[string]bool{}
	for _, rt := range idx.Endpoints {
		paths[rt.Path] = true
		if rt.Desc == "" {
			t.Errorf("route %q has no description", rt.Path)
		}
	}
	for _, want := range []string{"/fleet/runs", "/fleet/bottlenecks",
		"/fleet/regressions", "/fleet/blame", "/metrics", "/healthz", "/"} {
		if !paths[want] {
			t.Errorf("index missing %q", want)
		}
	}

	if code, _, _ := do("/definitely-not-mounted"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}

	_, body, _ = do("/metrics")
	for _, want := range []string{
		`grade10_http_requests_total{path="/",code="200"} 1`,
		`grade10_http_requests_total{path="unmatched",code="404"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
