package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"grade10/internal/obs"
)

// Mount serves the fleet on s:
//
//	GET  /fleet/runs           admission counters + every retained run
//	POST /fleet/runs           register a run directory: {"dir": "..."}
//	GET  /fleet/bottlenecks    top-K bottlenecks across all runs (?k=)
//	GET  /fleet/regressions    top-K archive diff verdicts (?k=)
//	GET  /fleet/blame          cross-job blame report (?run=)
//	GET  /healthz              ok, or 503 + degraded reasons (JSON)
//
// With a registry it also exposes the admission counters and the per-run
// staleness gauges on /metrics.
func Mount(s *obs.Surface, f *Fleet) {
	h := &routes{fleet: f}
	s.Handle("/fleet/runs", "GET: admission counters + retained runs; POST: register a run directory", http.HandlerFunc(h.handleRuns))
	s.Handle("/fleet/bottlenecks", "top-K bottlenecks across all runs (?k=)", http.HandlerFunc(h.handleBottlenecks))
	s.Handle("/fleet/regressions", "top-K archive diff verdicts (?k=)", http.HandlerFunc(h.handleRegressions))
	s.Handle("/fleet/blame", "cross-job blame report (?run=)", http.HandlerFunc(h.handleBlame))
	s.Handle("/healthz", "liveness; 503 + degraded reasons (JSON) when runs are stale, stalled or failed, or load was shed", http.HandlerFunc(h.handleHealthz))
	if reg := s.Registry(); reg != nil {
		h.registerMetrics(reg)
	}
}

type routes struct {
	fleet     *Fleet
	staleness *obs.GaugeVec

	mu        sync.Mutex // concurrent scrapes refresh the gauges one at a time
	staleSeen map[string]bool
}

// HealthView is the /healthz body: overall status plus every reason the
// fleet currently counts as degraded, one line per ailing run.
type HealthView struct {
	Status  string   `json:"status"` // "ok" or "degraded"
	Reasons []string `json:"reasons,omitempty"`
}

// Health enumerates the fleet's degraded conditions — the service's one
// health source: stale runs (no input for Config.Stale), stalled runs
// (metadata never appeared), failed runs (ingest or finalize errored), and
// lifetime load sheds. An empty reason list is a healthy fleet.
func (f *Fleet) Health() HealthView {
	var reasons []string
	f.mu.Lock()
	for _, name := range f.order {
		rs := f.runs[name]
		switch rs.status {
		case StatusStalled:
			reasons = append(reasons, fmt.Sprintf("run %s stalled: %s", name, rs.err))
		case StatusFailed:
			reasons = append(reasons, fmt.Sprintf("run %s failed: %s", name, rs.err))
		}
		if rs.engine != nil {
			if stale, why := rs.engine.Stale(f.cfg.Stale); stale {
				reasons = append(reasons, fmt.Sprintf("run %s stale: %s", name, why))
			}
		}
	}
	f.mu.Unlock()
	if _, _, shed := f.sched.Counts(); shed > 0 {
		reasons = append(reasons, fmt.Sprintf("%d registration(s) shed at capacity", shed))
	}
	if len(reasons) > 0 {
		return HealthView{Status: "degraded", Reasons: reasons}
	}
	return HealthView{Status: "ok"}
}

func (h *routes) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hv := h.fleet.Health()
	w.Header().Set("Content-Type", "application/json")
	if hv.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	obs.WriteJSONBody(w, hv)
}

// registerMetrics exposes the fleet's backpressure counters and the per-run
// staleness gauges on reg.
func (h *routes) registerMetrics(reg *obs.Registry) {
	f := h.fleet
	reg.GaugeFunc("grade10_fleet_runs_active",
		"Runs currently ingesting (bounded by the admission scheduler).",
		func() float64 { a, _, _ := f.Counts(); return float64(a) })
	reg.GaugeFunc("grade10_fleet_runs_queued",
		"Runs waiting in the admission backlog.",
		func() float64 { _, q, _ := f.Counts(); return float64(q) })
	reg.GaugeFunc("grade10_fleet_runs_shed_total",
		"Registrations rejected because active slots and queue were full.",
		func() float64 { _, _, sh := f.Counts(); return float64(sh) })
	h.staleness = reg.GaugeVec("grade10_fleet_run_staleness_seconds",
		"Wall-clock seconds since each active run last ingested input.", "run")
	h.staleSeen = map[string]bool{}
	reg.AddScrapeHook(h.refreshStaleness)
}

// refreshStaleness re-points the per-run gauges at the current active set,
// deleting series for runs that finished (graceful metric teardown).
func (h *routes) refreshStaleness() {
	ages := h.fleet.Staleness()
	h.mu.Lock()
	defer h.mu.Unlock()
	for run := range h.staleSeen {
		if _, live := ages[run]; !live {
			h.staleness.Delete(run)
			delete(h.staleSeen, run)
		}
	}
	for run, age := range ages {
		h.staleness.With(run).Set(age)
		h.staleSeen[run] = true
	}
}

func (h *routes) handleRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		obs.WriteJSON(w, h.fleet.Snapshot())
	case http.MethodPost:
		var req struct {
			Dir string `json:"dir"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.Dir) == "" {
			http.Error(w, `expected JSON body {"dir": "<run directory>"}`, http.StatusBadRequest)
			return
		}
		name, d, err := h.fleet.Register(req.Dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		status := http.StatusAccepted
		if d == DecisionShed {
			// 429: the fleet is at capacity; the caller may retry later.
			status = http.StatusTooManyRequests
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		obs.WriteJSONBody(w, map[string]string{"run": name, "decision": d.String()})
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

func (h *routes) handleBottlenecks(w http.ResponseWriter, r *http.Request) {
	k := queryInt(r, "k", 10)
	obs.WriteJSON(w, map[string]any{"bottlenecks": h.fleet.Bottlenecks(k)})
}

func (h *routes) handleRegressions(w http.ResponseWriter, r *http.Request) {
	k := queryInt(r, "k", 10)
	regs, err := h.fleet.Regressions(k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	obs.WriteJSON(w, map[string]any{"regressions": regs})
}

func (h *routes) handleBlame(w http.ResponseWriter, r *http.Request) {
	run := r.URL.Query().Get("run")
	if run == "" {
		http.Error(w, "missing ?run=<name>", http.StatusBadRequest)
		return
	}
	rep, err := h.fleet.Blame(run)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, rep)
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}
