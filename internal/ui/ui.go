// Package ui is the embedded visual profiler: a zero-dependency browser UI
// (hand-written HTML/CSS/JS, go:embed-ed — no CDN, no npm) plus the
// render-ready view-model endpoints it draws from. It mounts under /ui/ and
// /api/ on the service's HTTP surface (Mount), shaping the existing
// profile, window, trace, and fleet data:
//
//	/ui/           embedded assets (ETag/304, Cache-Control)
//	/api/overview  run header + sorted snapshot summaries (JSON)
//	/api/heatmap   phase-type tree × machine attribution heatmap (JSON)
//	/api/timeline  per-machine lanes: phases, blocked intervals, bottlenecks
//	/api/comms     cross-machine communication matrix estimate (JSON)
//	/api/events    SSE alert stream, plus window flushes in single-run mode (with a Broker)
//
// Every /api endpoint is deterministic: byte-identical JSON at every engine
// parallelism. In fleet mode the endpoints take ?run=<name> and resolve
// against the fleet's active engines.
package ui

import (
	"net/http"
	"strconv"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/obs"
	"grade10/internal/stream"
)

// Config selects the data sources behind the view models.
type Config struct {
	// Engine backs single-run mode: requests without ?run= resolve to the
	// engine it returns, and while it returns nil (run metadata not seen
	// yet) they answer 503. Nil in fleet mode.
	Engine func() *stream.Engine
	// Fleet resolves ?run= against the fleet's engines and, when set, serves
	// /api/overhead from its per-run accounts.
	Fleet *fleet.Fleet
	// Broker, when set, serves the /api/events SSE stream. Wire its
	// OnWindowFlush into the engine's stream.Config to feed it, and its
	// PublishAlerts into the alerting OnAlert hook for `event: alert` frames.
	Broker *Broker
	// Alerts, when set, serves /api/alerts (the same lifecycle snapshot as
	// the host server's /alerts) so the banner can catch up on connect.
	Alerts *alert.Evaluator
}

// Mount serves the profiler on s: the embedded assets under /ui/ and the
// view models under /api/, listed in the surface's JSON index and
// HTTP-metrics label space.
func Mount(s *obs.Surface, cfg Config) {
	u := &server{cfg: cfg, assets: loadAssets()}
	s.Handle("/ui/", "embedded visual profiler (HTML/CSS/JS)", http.HandlerFunc(u.handleAssets))
	s.Handle("/api/overview", "profiler overview view model (JSON)", http.HandlerFunc(u.handleOverview))
	s.Handle("/api/heatmap", "phase × machine attribution heatmap view model (JSON)", http.HandlerFunc(u.handleHeatmap))
	s.Handle("/api/timeline", "per-machine timeline view model (JSON)", http.HandlerFunc(u.handleTimeline))
	s.Handle("/api/comms", "cross-machine communication matrix estimate (JSON)", http.HandlerFunc(u.handleComms))
	if cfg.Broker != nil {
		s.Handle("/api/events", "SSE window-flush and alert stream", cfg.Broker)
	}
	if cfg.Alerts != nil {
		s.Handle("/api/alerts", "alert lifecycle snapshot for the banner (JSON)", http.HandlerFunc(u.handleAlerts))
	}
	if cfg.Fleet != nil {
		s.Handle("/api/overhead", "per-run framework overhead, most expensive first (JSON)", http.HandlerFunc(u.handleOverhead))
	}
}

// server holds the profiler's handlers.
type server struct {
	cfg    Config
	assets map[string]asset
}

// handleOverhead serves the overhead panel's rows: every run's accrued
// framework cost, most expensive by wall time first, capped at ?top= rows
// (default all).
func (s *server) handleOverhead(w http.ResponseWriter, r *http.Request) {
	runs := s.cfg.Fleet.Overhead()
	if runs == nil {
		runs = []obs.RunOverhead{}
	}
	if t := r.URL.Query().Get("top"); t != "" {
		if n, err := strconv.Atoi(t); err == nil && n >= 0 && n < len(runs) {
			runs = runs[:n]
		}
	}
	obs.WriteJSON(w, struct {
		Runs []obs.RunOverhead `json:"runs"`
	}{runs})
}

func (s *server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, s.cfg.Alerts.Snapshot())
}

// resolveEngine picks the engine answering this request: the configured one
// in single-run mode, the named active run's in fleet mode. It writes the
// HTTP error itself when resolution fails.
func (s *server) resolveEngine(w http.ResponseWriter, r *http.Request) (*stream.Engine, string, bool) {
	run := r.URL.Query().Get("run")
	if s.cfg.Engine != nil && run == "" {
		if e := s.cfg.Engine(); e != nil {
			return e, "", true
		}
		http.Error(w, "waiting for run metadata (run.json)", http.StatusServiceUnavailable)
		return nil, "", false
	}
	if s.cfg.Fleet != nil {
		if run == "" {
			http.Error(w, "fleet mode: need ?run=<name> (see /fleet/runs)", http.StatusBadRequest)
			return nil, "", false
		}
		e, _, ok := s.cfg.Fleet.EngineFor(run)
		if !ok {
			http.Error(w, "run "+run+" is not actively ingesting (finished runs live in the archive; see /fleet/runs and /diff)",
				http.StatusNotFound)
			return nil, "", false
		}
		return e, run, true
	}
	if run != "" {
		http.Error(w, "?run= is only meaningful in fleet mode", http.StatusBadRequest)
		return nil, "", false
	}
	http.Error(w, "no engine configured", http.StatusServiceUnavailable)
	return nil, "", false
}

func (s *server) mode() string {
	if s.cfg.Engine != nil {
		return "single"
	}
	return "fleet"
}

func (s *server) handleOverview(w http.ResponseWriter, r *http.Request) {
	e, run, ok := s.resolveEngine(w, r)
	if !ok {
		return
	}
	sse := s.cfg.Broker != nil
	obs.WriteJSON(w, buildOverview(e.Snapshot(), s.mode(), run, sse, e.ExplainEnabled()))
}

// heatCells prefers the exact finalized profile (cells then match /explain
// derivations) and falls back to the engine's windowed aggregates mid-run.
func heatCells(e *stream.Engine) ([]stream.HeatCell, string) {
	if out := e.Final(); out != nil && out.Profile != nil {
		return heatCellsFromProfile(out.Profile, out.Slices), "final"
	}
	return e.HeatCells(), "windows"
}

func (s *server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.resolveEngine(w, r)
	if !ok {
		return
	}
	cells, source := heatCells(e)
	obs.WriteJSON(w, buildHeatmap(cells, source))
}

func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.resolveEngine(w, r)
	if !ok {
		return
	}
	if out := e.Final(); out != nil && out.Trace != nil {
		obs.WriteJSON(w, buildFinalTimeline(out.Trace, out.Bottlenecks))
		return
	}
	obs.WriteJSON(w, buildLiveTimeline(e.Snapshot()))
}

func (s *server) handleComms(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.resolveEngine(w, r)
	if !ok {
		return
	}
	cells, source := heatCells(e)
	obs.WriteJSON(w, buildComms(cells, source))
}
