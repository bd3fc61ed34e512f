package stream

import (
	"net/http"
	"strings"
	"sync/atomic"

	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
)

// MountArchive serves a profile archive on s — the one archive surface of
// every service mode:
//
//	/runs        archived run metadata (JSON)
//	/runs/{id}   one full archived record (ID or unique prefix)
//	/diff?a=&b=  structural diff of two archived runs (JSON; &format=text)
//
// With a registry it also registers the archive watchdog gauges:
// grade10_runs_stored, grade10_runs_evicted_total, and
// grade10_last_diff_regressed (1 when the most recent /diff verdict was
// regressed). The archive guards its own state, so runs can be archived
// while scrapes read /runs.
func MountArchive(s *obs.Surface, store profstore.Archive) {
	a := &archiveRoutes{store: store}
	s.Handle("/runs", "archived run metadata (JSON)", http.HandlerFunc(a.handleRuns))
	s.Handle("/runs/", "one full archived record by ID or unique prefix (JSON)", http.HandlerFunc(a.handleRunByID))
	s.Handle("/diff", "structural diff of two archived runs ?a=&b= (JSON; &format=text)", http.HandlerFunc(a.handleDiff))
	r := s.Registry()
	if r == nil {
		return
	}
	r.GaugeFunc("grade10_runs_stored", "Archived runs currently retained in the profile store.",
		func() float64 { return float64(store.Len()) })
	r.GaugeFunc("grade10_runs_evicted_total", "Archived runs evicted by bounded retention since the store was created.",
		func() float64 { return float64(store.EvictedTotal()) })
	r.GaugeFunc("grade10_last_diff_regressed", "1 when the most recent /diff verdict was regressed, else 0.",
		func() float64 { return float64(a.lastDiffRegressed.Load()) })
}

type archiveRoutes struct {
	store profstore.Archive
	// lastDiffRegressed is 0 until a diff has been served, then 1/0 for
	// whether the most recent /diff verdict was regressed.
	lastDiffRegressed atomic.Int64
}

func (a *archiveRoutes) handleRuns(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, struct {
		Runs         []profstore.Meta `json:"runs"`
		EvictedTotal int64            `json:"evicted_total"`
	}{a.store.List(), a.store.EvictedTotal()})
}

func (a *archiveRoutes) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/runs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	rec, err := a.store.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, rec)
}

func (a *archiveRoutes) handleDiff(w http.ResponseWriter, r *http.Request) {
	idA, idB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if idA == "" || idB == "" {
		http.Error(w, "need ?a=<run>&b=<run> (IDs or unique prefixes; see /runs)", http.StatusBadRequest)
		return
	}
	recA, errA := a.store.Get(idA)
	recB, errB := a.store.Get(idB)
	if errA != nil {
		http.Error(w, errA.Error(), http.StatusNotFound)
		return
	}
	if errB != nil {
		http.Error(w, errB.Error(), http.StatusNotFound)
		return
	}
	rep, err := profdiff.Diff(recA, recB, profdiff.Config{})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if rep.Verdict == profdiff.Regressed {
		a.lastDiffRegressed.Store(1)
	} else {
		a.lastDiffRegressed.Store(0)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = profdiff.WriteText(w, rep)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = profdiff.WriteJSON(w, rep)
}
