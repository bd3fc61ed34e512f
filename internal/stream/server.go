package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"grade10/internal/explain"
	"grade10/internal/obs"
	"grade10/internal/report"
	"grade10/internal/vtime"
)

// Mount serves one run's live profile on s:
//
//	/profile     full live snapshot (JSON)
//	/phases      open phases and per-type aggregates (JSON)
//	/bottlenecks cumulative bottleneck rows (JSON)
//	/windows     the recent-window ring (JSON)
//	/stats       ingest and robustness counters (JSON)
//	/report      the final batch-identical report (text; 503 until finalized)
//	/explain     provenance query ?q=... (JSON or ?format=text)
//	/trace       Chrome trace-event JSON (self-trace + profile when final)
//	/healthz     liveness; 503 degraded when ingest is older than staleAfter
//
// plus the snapshot families on the surface's /metrics and, with a registry,
// the engine's staleness and parser-health gauges. engine is asked on every
// request; until it returns non-nil (the run's metadata has not arrived)
// the profile routes answer 503 and /healthz answers ok. staleAfter <= 0
// disables the staleness check.
func Mount(s *obs.Surface, engine func() *Engine, staleAfter time.Duration) {
	srv := &server{engine: engine, staleAfter: staleAfter}
	s.Handle("/profile", "full live profile snapshot (JSON)", srv.live(srv.handleProfile))
	s.Handle("/phases", "open phases and per-type aggregates (JSON)", srv.live(srv.handlePhases))
	s.Handle("/bottlenecks", "cumulative bottleneck rows (JSON)", srv.live(srv.handleBottlenecks))
	s.Handle("/windows", "recent analysis-window ring (JSON)", srv.live(srv.handleWindows))
	s.Handle("/stats", "ingest and robustness counters (JSON)", srv.live(srv.handleStats))
	s.Handle("/report", "exact final report (text; 503 until finalized)", srv.live(srv.handleReport))
	s.Handle("/explain", "provenance query ?q=phase=.. machine=.. resource=.. (JSON or ?format=text)", srv.live(srv.handleExplain))
	s.Handle("/trace", "Chrome trace-event JSON (Perfetto-loadable)", srv.live(srv.handleTrace))
	s.Handle("/healthz", "liveness; 503 degraded when ingest is stale", http.HandlerFunc(srv.handleHealthz))
	s.AddMetricsText(srv.writeMetrics)
	if reg := s.Registry(); reg != nil {
		srv.registerMetrics(reg)
	}
}

// server holds one run's route handlers.
type server struct {
	engine     func() *Engine
	staleAfter time.Duration

	mu         sync.Mutex
	reportText []byte // cached render of the exact final report
}

// live adapts a handler that needs the engine: until the run's metadata has
// arrived there is none, and the route answers 503.
func (s *server) live(h func(http.ResponseWriter, *http.Request, *Engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := s.engine()
		if e == nil {
			http.Error(w, "waiting for run metadata (run.json)", http.StatusServiceUnavailable)
			return
		}
		h(w, r, e)
	}
}

// degraded reports whether ingest is stale, and why. Always healthy with no
// threshold, before the engine exists, or once finalized.
func (s *server) degraded() (bool, string) {
	e := s.engine()
	if e == nil {
		return false, ""
	}
	stale, why := e.Stale(s.staleAfter)
	if !stale {
		return false, ""
	}
	return true, "degraded: " + why
}

// registerMetrics registers scrape-time gauges derived from the engine's
// wall-clock state: ingest staleness, health, and the parser's
// malformed-line count (enginelog.ParseStats, merged into Stats).
func (s *server) registerMetrics(r *obs.Registry) {
	start := time.Now()
	stat := func(fn func(*Engine) float64) func() float64 {
		return func() float64 {
			if e := s.engine(); e != nil {
				return fn(e)
			}
			return 0
		}
	}
	r.GaugeFunc("grade10_uptime_seconds", "Wall-clock seconds since the service started.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("grade10_last_ingest_age_seconds",
		"Wall-clock seconds since the last ingested event, line, or sample.",
		stat(func(e *Engine) float64 { age, _ := e.IngestAge(); return age.Seconds() }))
	r.GaugeFunc("grade10_health_degraded",
		"1 when /healthz reports degraded (ingest older than the staleness threshold).",
		func() float64 {
			if degraded, _ := s.degraded(); degraded {
				return 1
			}
			return 0
		})
	r.GaugeFunc("grade10_parser_malformed_lines",
		"Malformed log lines counted by the enginelog parser (ParseStats).",
		stat(func(e *Engine) float64 { return float64(e.Stats().ParseErrors) }))
}

func (s *server) handleProfile(w http.ResponseWriter, _ *http.Request, e *Engine) {
	obs.WriteJSON(w, e.Snapshot())
}

func (s *server) handlePhases(w http.ResponseWriter, _ *http.Request, e *Engine) {
	snap := e.Snapshot()
	obs.WriteJSON(w, struct {
		WatermarkSeconds float64                 `json:"watermark_seconds"`
		OpenPhases       []OpenPhase             `json:"open_phases"`
		PhaseTypes       []TypeSummary           `json:"phase_types"`
		Counters         map[string]CounterValue `json:"counters,omitempty"`
	}{snap.WatermarkSeconds, snap.OpenPhases, snap.PhaseTypes, snap.Counters})
}

func (s *server) handleBottlenecks(w http.ResponseWriter, _ *http.Request, e *Engine) {
	snap := e.Snapshot()
	obs.WriteJSON(w, struct {
		Coverage    float64             `json:"coverage"`
		Bottlenecks []BottleneckSummary `json:"bottlenecks"`
	}{snap.Coverage, snap.Bottlenecks})
}

func (s *server) handleWindows(w http.ResponseWriter, _ *http.Request, e *Engine) {
	snap := e.Snapshot()
	obs.WriteJSON(w, struct {
		WindowSeconds float64         `json:"window_seconds"`
		Windows       []*WindowResult `json:"windows"`
	}{snap.WindowSeconds, snap.Windows})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request, e *Engine) {
	obs.WriteJSON(w, e.Stats())
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if degraded, reason := s.degraded(); degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleExplain answers explain queries (?q=<query>) against the captured
// provenance: one exact full-run derivation once finalized in retain mode,
// else one derivation per retained window overlapping the query. JSON by
// default; ?format=text renders the human-readable derivation chains.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request, e *Engine) {
	queryStr := r.URL.Query().Get("q")
	if queryStr == "" {
		http.Error(w, "missing ?q=<query> (grammar: phase=<type-path> machine=<m> resource=<name> [t0..t1])",
			http.StatusBadRequest)
		return
	}
	derivs, err := e.Explain(queryStr)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var pe *explain.ParseError
		if errors.As(err, &pe) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i, wd := range derivs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if wd.Final {
				fmt.Fprintln(w, "=== final (exact full-run derivation) ===")
			} else {
				fmt.Fprintf(w, "=== window %s..%s ===\n",
					vtime.Time(wd.WindowStartNS), vtime.Time(wd.WindowEndNS))
			}
			_ = wd.Derivation.WriteText(w)
		}
		return
	}
	obs.WriteJSON(w, struct {
		Query       string             `json:"query"`
		Derivations []WindowDerivation `json:"derivations"`
	}{queryStr, derivs})
}

// handleTrace serves the combined Chrome trace-event export: the pipeline's
// self-trace spans plus, once the run is finalized in retain mode, the
// analyzed job's profile tracks.
func (s *server) handleTrace(w http.ResponseWriter, _ *http.Request, e *Engine) {
	out, _, _ := e.FinalStatus()
	tracer := e.Tracer()
	if out == nil && tracer == nil {
		http.Error(w, "tracing disabled and no finalized profile", http.StatusServiceUnavailable)
		return
	}
	var buf bytes.Buffer
	if err := report.WriteTraceEvents(&buf, out, tracer); err != nil {
		http.Error(w, "rendering trace: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="grade10-trace.json"`)
	_, _ = w.Write(buf.Bytes())
}

// handleReport serves the exact final report. Until Finalize has run it
// answers 503; in bounded mode (no retained inputs) it points at the live
// endpoints instead.
func (s *server) handleReport(w http.ResponseWriter, _ *http.Request, e *Engine) {
	out, finalized, err := e.FinalStatus()
	switch {
	case !finalized:
		http.Error(w, "run still in progress; try /profile", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, "finalization failed: "+err.Error(), http.StatusInternalServerError)
		return
	case out == nil:
		http.Error(w, "exact report unavailable in bounded mode; see /profile", http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	if s.reportText == nil {
		var buf bytes.Buffer
		if werr := report.WriteAll(&buf, out); werr != nil {
			s.mu.Unlock()
			http.Error(w, "rendering report: "+werr.Error(), http.StatusInternalServerError)
			return
		}
		s.reportText = buf.Bytes()
	}
	text := s.reportText
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(text)
}

// promEscape escapes a Prometheus label value per the text exposition spec.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promLabel renders one key="value" pair with a spec-escaped value. The
// escaped value must be wrapped in plain quotes — %q would re-escape the
// backslashes promEscape just produced.
func promLabel(key, value string) string {
	return key + `="` + promEscape(value) + `"`
}

type promWriter struct {
	w   *bytes.Buffer
	cur string
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	p.cur = name
}

func (p *promWriter) value(labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(p.w, "%s %g\n", p.cur, v)
		return
	}
	fmt.Fprintf(p.w, "%s{%s} %g\n", p.cur, labels, v)
}

// writeMetrics renders the live profile in Prometheus text exposition
// format (hand-rolled; no client library). The surface appends its registry
// families after these.
func (s *server) writeMetrics(w io.Writer) {
	e := s.engine()
	if e == nil {
		return
	}
	snap := e.Snapshot()
	p := &promWriter{w: &bytes.Buffer{}}

	p.family("grade10_ingest_lines_total", "Log lines seen by the parser.", "counter")
	p.value("", float64(snap.Stats.Lines))
	p.family("grade10_parse_errors_total", "Malformed log lines counted and skipped.", "counter")
	p.value("", float64(snap.Stats.ParseErrors))
	p.family("grade10_truncated_lines_total", "Over-long log lines dropped by the line reader.", "counter")
	p.value("", float64(snap.Stats.Truncated))
	p.family("grade10_events_total", "Accepted enginelog events.", "counter")
	p.value("", float64(snap.Stats.Events))
	p.family("grade10_invalid_events_total", "Events rejected for violating phase structure.", "counter")
	p.value("", float64(snap.Stats.InvalidEvents))
	p.family("grade10_late_events_total", "Blocking intervals arriving behind the flushed frontier.", "counter")
	p.value("", float64(snap.Stats.LateEvents))
	p.family("grade10_dropped_events_total", "Events shed by a bounded ingest buffer.", "counter")
	p.value("", float64(snap.Stats.DroppedEvents))
	p.family("grade10_samples_total", "Accepted monitoring samples.", "counter")
	p.value("", float64(snap.Stats.Samples))
	p.family("grade10_invalid_samples_total", "Monitoring samples dropped as malformed.", "counter")
	p.value("", float64(snap.Stats.InvalidSamples))
	p.family("grade10_monitoring_gaps_filled_total", "Monitoring gaps zero-filled.", "counter")
	p.value("", float64(snap.Stats.GapsFilled))
	p.family("grade10_ignored_samples_total", "Samples for resources the model does not cover.", "counter")
	p.value("", float64(snap.Stats.IgnoredSamples))
	p.family("grade10_windows_flushed_total", "Analysis windows flushed.", "counter")
	p.value("", float64(snap.Stats.WindowsFlushed))
	p.family("grade10_explain_queries_total", "Explain queries served by the provenance engine.", "counter")
	p.value("", float64(e.ExplainQueries()))
	p.family("grade10_provenance_bytes", "Approximate retained size of the captured attribution provenance.", "gauge")
	p.value("", float64(e.ProvenanceBytes()))

	p.family("grade10_open_phases", "Phases currently executing.", "gauge")
	p.value("", float64(len(snap.OpenPhases)))
	p.family("grade10_watermark_seconds", "Latest virtual instant covered by the log feed.", "gauge")
	p.value("", snap.WatermarkSeconds)
	p.family("grade10_frontier_seconds", "Virtual instant up to which windows have flushed.", "gauge")
	p.value("", snap.FrontierSeconds)
	p.family("grade10_ingest_lag_seconds", "Virtual time the watermark runs ahead of the flushed frontier.", "gauge")
	p.value("", snap.LagSeconds)
	p.family("grade10_attribution_coverage", "Attributed / consumed over all flushed windows.", "gauge")
	p.value("", snap.Coverage)
	p.family("grade10_finalized", "1 once the run has been finalized.", "gauge")
	fin := 0.0
	if snap.Finalized {
		fin = 1
	}
	p.value("", fin)

	p.family("grade10_resource_utilization", "Cumulative utilization of a resource instance over flushed windows.", "gauge")
	for _, is := range snap.Instances {
		p.value(promLabel("instance", is.Key), is.Utilization)
	}
	p.family("grade10_resource_last_window_utilization", "Utilization of a resource instance in the most recent window.", "gauge")
	for _, is := range snap.Instances {
		p.value(promLabel("instance", is.Key), is.LastWindowUtilization)
	}
	p.family("grade10_resource_saturated_seconds_total", "Virtual seconds a resource instance spent saturated.", "counter")
	for _, is := range snap.Instances {
		p.value(promLabel("instance", is.Key), is.SaturatedSeconds)
	}
	p.family("grade10_bottleneck_seconds_total", "Virtual seconds of detected bottleneck per phase type, resource, and kind.", "counter")
	for _, b := range snap.Bottlenecks {
		p.value(promLabel("type_path", b.TypePath)+","+promLabel("resource", b.Resource)+
			","+promLabel("kind", b.Kind), b.Seconds)
	}

	if len(snap.Counters) > 0 {
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		p.family("grade10_engine_counter_sum", "Sum of an engine-reported counter.", "gauge")
		for _, name := range names {
			p.value(promLabel("name", name), snap.Counters[name].Sum)
		}
		p.family("grade10_engine_counter_last", "Last value of an engine-reported counter.", "gauge")
		for _, name := range names {
			p.value(promLabel("name", name), snap.Counters[name].Last)
		}
	}

	_, _ = w.Write(p.w.Bytes())
}
