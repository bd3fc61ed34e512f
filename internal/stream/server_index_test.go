package stream_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"grade10/internal/obs"
	"grade10/internal/stream"
)

// TestServerIndexJSON: GET / answers the machine-readable endpoint index —
// every mounted route with a description, sorted by path — and nothing else
// (unknown paths stay 404).
func TestServerIndexJSON(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(e, 0, nil)

	code, body, hdr := get(t, srv, "/")
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
	if idx.Service == "" {
		t.Fatal("index missing service name")
	}
	paths := map[string]string{}
	for i, rt := range idx.Endpoints {
		paths[rt.Path] = rt.Desc
		if rt.Desc == "" {
			t.Errorf("route %q has no description", rt.Path)
		}
		if i > 0 && !(idx.Endpoints[i-1].Path < rt.Path) {
			t.Errorf("index not sorted: %q before %q", idx.Endpoints[i-1].Path, rt.Path)
		}
	}
	for _, want := range []string{"/profile", "/phases", "/bottlenecks", "/windows",
		"/stats", "/metrics", "/report", "/explain", "/trace", "/healthz", "/"} {
		if _, ok := paths[want]; !ok {
			t.Errorf("index missing %q", want)
		}
	}
	// Archive routes only appear once a store is attached.
	if _, ok := paths["/runs"]; ok {
		t.Error("index lists /runs without a store")
	}

	if code, _, _ := get(t, srv, "/definitely-not-mounted"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestServerHTTPMetrics: with a registry attached, every request lands in the
// per-route request count and latency families on /metrics.
func TestServerHTTPMetrics(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(e, 0, obs.NewRegistry())

	for i := 0; i < 2; i++ {
		if code, _, _ := get(t, srv, "/stats"); code != http.StatusOK {
			t.Fatalf("/stats: %d", code)
		}
	}
	get(t, srv, "/no-such-path")

	_, body, _ := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE grade10_http_requests_total counter",
		`grade10_http_requests_total{path="/stats",code="200"} 2`,
		`grade10_http_requests_total{path="unmatched",code="404"} 1`,
		"# TYPE grade10_http_request_seconds histogram",
		`grade10_http_request_seconds_count{path="/stats"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
