package stream

import (
	"net/http"
	"strings"
	"sync/atomic"

	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
)

// storeState is the profile archive behind the HTTP handlers. The archive
// guards its own state, so serve can archive the finalized run while
// scrapes are reading /runs.
type storeState struct {
	store   profstore.Archive
	diffCfg profdiff.Config

	// lastDiffRegressed is the /metrics watchdog gauge: 0 until a diff has
	// been served, then 1/0 for whether the most recent /diff verdict was
	// regressed.
	lastDiffRegressed atomic.Int64
}

// SetStore attaches a profile archive to the server, enabling
//
//	/runs        archived run metadata (JSON)
//	/runs/{id}   one full archived record (ID or unique prefix)
//	/diff?a=&b=  structural diff of two archived runs (JSON; &format=text)
//
// and the store-fed families registered by RegisterStoreMetrics. diffCfg
// zero-values take profdiff defaults. Set before serving traffic.
func (s *Server) SetStore(store profstore.Archive, diffCfg profdiff.Config) {
	s.store = &storeState{store: store, diffCfg: diffCfg}
	s.handle("/runs", "archived run metadata (JSON)", s.handleRuns)
	s.handle("/runs/", "one full archived record by ID or unique prefix (JSON)", s.handleRunByID)
	s.handle("/diff", "structural diff of two archived runs ?a=&b= (JSON; &format=text)", s.handleDiff)
}

// ArchiveRecord puts a record into the attached store (a no-op without one),
// returning its meta and any evicted run IDs.
func (s *Server) ArchiveRecord(rec *profstore.Record) (profstore.Meta, []string, error) {
	if s.store == nil {
		return profstore.Meta{}, nil, nil
	}
	return s.store.store.Put(rec)
}

// RegisterStoreMetrics registers the archive watchdog gauges:
// grade10_runs_stored, grade10_runs_evicted_total, and
// grade10_last_diff_regressed (1 when the most recent /diff verdict was
// regressed). Call after SetStore.
func (s *Server) RegisterStoreMetrics(r *obs.Registry) {
	if r == nil || s.store == nil {
		return
	}
	st := s.store
	r.GaugeFunc("grade10_runs_stored", "Archived runs currently retained in the profile store.",
		func() float64 { return float64(st.store.Len()) })
	r.GaugeFunc("grade10_runs_evicted_total", "Archived runs evicted by bounded retention since the store was created.",
		func() float64 { return float64(st.store.EvictedTotal()) })
	r.GaugeFunc("grade10_last_diff_regressed", "1 when the most recent /diff verdict was regressed, else 0.",
		func() float64 { return float64(st.lastDiffRegressed.Load()) })
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.store.store.List()
	evicted := s.store.store.EvictedTotal()
	writeJSON(w, struct {
		Runs         []profstore.Meta `json:"runs"`
		EvictedTotal int64            `json:"evicted_total"`
	}{runs, evicted})
}

func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/runs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	rec, err := s.store.store.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	idA, idB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if idA == "" || idB == "" {
		http.Error(w, "need ?a=<run>&b=<run> (IDs or unique prefixes; see /runs)", http.StatusBadRequest)
		return
	}
	recA, errA := s.store.store.Get(idA)
	recB, errB := s.store.store.Get(idB)
	if errA != nil {
		http.Error(w, errA.Error(), http.StatusNotFound)
		return
	}
	if errB != nil {
		http.Error(w, errB.Error(), http.StatusNotFound)
		return
	}
	rep, err := profdiff.Diff(recA, recB, s.store.diffCfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if rep.Verdict == profdiff.Regressed {
		s.store.lastDiffRegressed.Store(1)
	} else {
		s.store.lastDiffRegressed.Store(0)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = profdiff.WriteText(w, rep)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = profdiff.WriteJSON(w, rep)
}
