package stream_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grade10/internal/obs"
	"grade10/internal/stream"
)

// serve mounts the single-run routes for e on a fresh surface; reg may be
// nil, staleAfter 0 disables the staleness check.
func serve(e *stream.Engine, staleAfter time.Duration, reg *obs.Registry) *obs.Surface {
	s := obs.NewSurface("grade10 live characterization", reg)
	stream.Mount(s, func() *stream.Engine { return e }, staleAfter)
	return s
}

func get(t *testing.T, s http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String(), rec.Header()
}

// TestServerEndpoints drives the HTTP layer mid-run and after finalization:
// the live endpoints must serve while ingest is still in progress, and
// /report must converge to the batch-identical text.
func TestServerEndpoints(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{
		Models: f.models, RetainForFinal: true, WindowSlices: 8,
		ExpectedInstances: len(f.monitoring),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(e, 0, nil)

	// Half the log ingested: the run is "still executing".
	lines := strings.Split(f.logText, "\n")
	for _, line := range lines[:len(lines)/2] {
		e.IngestLine(line)
	}

	code, body, hdr := get(t, srv, "/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile mid-run: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/profile content type %q", ct)
	}
	var snap stream.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/profile not JSON: %v", err)
	}
	if snap.Finalized {
		t.Fatal("mid-run snapshot claims finalized")
	}
	if snap.Stats.Events == 0 || len(snap.OpenPhases) == 0 {
		t.Fatalf("mid-run snapshot empty: %d events, %d open phases",
			snap.Stats.Events, len(snap.OpenPhases))
	}

	code, body, hdr = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics mid-run: %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics content type %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE grade10_events_total counter",
		"grade10_open_phases",
		"grade10_watermark_seconds",
		"grade10_finalized 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	if code, _, _ = get(t, srv, "/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("/report before finalize: %d, want 503", code)
	}
	if code, _, _ = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if code, _, _ = get(t, srv, "/phases"); code != http.StatusOK {
		t.Fatalf("/phases: %d", code)
	}
	if code, _, _ = get(t, srv, "/bottlenecks"); code != http.StatusOK {
		t.Fatalf("/bottlenecks: %d", code)
	}
	if code, _, _ = get(t, srv, "/windows"); code != http.StatusOK {
		t.Fatalf("/windows: %d", code)
	}
	if code, _, _ = get(t, srv, "/no-such-endpoint"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d, want 404", code)
	}

	// Finish the run and finalize: /report must match batch byte-for-byte.
	for _, line := range lines[len(lines)/2:] {
		e.IngestLine(line)
	}
	e.LogDone()
	for _, line := range strings.Split(f.monText, "\n") {
		e.IngestMonitoringLine(line)
	}
	e.MonitoringDone()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}

	code, body, _ = get(t, srv, "/report")
	if code != http.StatusOK {
		t.Fatalf("/report after finalize: %d", code)
	}
	if body != f.batchText {
		t.Fatal("/report text differs from batch report")
	}
	// Cached render: second fetch identical.
	if _, body2, _ := get(t, srv, "/report"); body2 != body {
		t.Fatal("/report not stable across fetches")
	}

	_, body, _ = get(t, srv, "/metrics")
	if !strings.Contains(body, "grade10_finalized 1") {
		t.Fatal("/metrics does not report finalization")
	}
	if !strings.Contains(body, "grade10_resource_utilization{instance=\"cpu@0\"}") {
		t.Fatalf("/metrics missing per-instance utilization:\n%s", body)
	}
}

// TestServerBoundedReport verifies the bounded-mode /report contract: 503
// with a pointer at the live endpoints, not an error or a wrong report.
func TestServerBoundedReport(t *testing.T) {
	f := getFixture(t)
	e, err := stream.New(stream.Config{Models: f.models})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(e, 0, nil)
	feedAll(e, f)
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, srv, "/report")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("bounded /report: %d, want 503", code)
	}
	if !strings.Contains(body, "bounded") {
		t.Fatalf("bounded /report body: %q", body)
	}
}
