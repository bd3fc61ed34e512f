package flight

import (
	"archive/tar"
	"errors"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"grade10/internal/obs"
)

// BundlesHandler serves the bundle inventory. Mount it at /debug/bundles
// (list, JSON) and /debug/bundles/ (fetch one bundle as a tar stream by ID).
func BundlesHandler(c *Capturer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/debug/bundles")
		rest = strings.Trim(rest, "/")
		if rest == "" {
			obs.WriteJSON(w, struct {
				Bundles []Manifest `json:"bundles"`
			}{c.List()})
			return
		}
		id := path.Clean(rest)
		if id != rest || strings.ContainsAny(id, "/\\") || id == ".." || id == "." {
			http.Error(w, "bad bundle id", http.StatusBadRequest)
			return
		}
		dir := filepath.Join(c.Dir(), id)
		entries, err := os.ReadDir(dir)
		if err != nil {
			http.Error(w, "bundle not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-tar")
		w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.tar"`)
		tw := tar.NewWriter(w)
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			hdr := &tar.Header{
				Name:    id + "/" + e.Name(),
				Mode:    0o644,
				Size:    int64(len(data)),
				ModTime: info.ModTime(),
			}
			if err := tw.WriteHeader(hdr); err != nil {
				return
			}
			if _, err := tw.Write(data); err != nil {
				return
			}
		}
		_ = tw.Close()
	})
}

// TriggerHandler captures a bundle on demand: POST /debug/bundle with an
// optional ?detail=. The manual trigger shares the per-kind rate limit, so a
// hammered endpoint answers 429 instead of filling the disk.
func TriggerHandler(c *Capturer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		m, err := c.CaptureSync(TriggerManual, r.URL.Query().Get("detail"), nil)
		if errors.Is(err, ErrRateLimited) {
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		obs.WriteJSON(w, m)
	})
}

// LogsHandler serves the bounded log ring: GET /logs?level=&limit=. level
// filters to records at or above the named slog level (default debug —
// everything the ring holds); limit keeps the newest N records (default 200,
// 0 means all).
func LogsHandler(ring *obs.LogRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		min, err := obs.ParseLogLevel(r.URL.Query().Get("level"))
		if r.URL.Query().Get("level") == "" {
			min = -8 // below debug: no filter
		} else if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit := 200
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		obs.WriteJSON(w, struct {
			Dropped uint64          `json:"dropped"`
			Records []obs.LogRecord `json:"records"`
		}{ring.Dropped(), ring.Records(min, limit)})
	})
}

// OverheadHandler serves per-run framework overhead: GET /debug/overhead.
func OverheadHandler(fn func() []obs.RunOverhead) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		runs := fn()
		if runs == nil {
			runs = []obs.RunOverhead{}
		}
		obs.WriteJSON(w, struct {
			Runs []obs.RunOverhead `json:"runs"`
		}{runs})
	})
}

// RegisterOverheadMetrics exposes per-run overhead gauges, refreshed from fn
// at every scrape via the registry's scrape hook:
//
//	grade10_overhead_wall_seconds{run}
//	grade10_overhead_cpu_seconds{run}
//	grade10_overhead_alloc_bytes{run}
//	grade10_overhead_ingest_bytes{run}
//
// Runs that disappear from fn keep their last value until process restart;
// the label space is bounded by fleet run retention.
func RegisterOverheadMetrics(reg *obs.Registry, fn func() []obs.RunOverhead) {
	if reg == nil || fn == nil {
		return
	}
	wall := reg.GaugeVec("grade10_overhead_wall_seconds",
		"Framework wall time spent characterizing the run.", "run")
	cpu := reg.GaugeVec("grade10_overhead_cpu_seconds",
		"Approximate framework CPU time spent in the run's compute sections.", "run")
	alloc := reg.GaugeVec("grade10_overhead_alloc_bytes",
		"Heap bytes allocated during the run's compute sections (process-wide delta).", "run")
	ingest := reg.GaugeVec("grade10_overhead_ingest_bytes",
		"Raw bytes ingested for the run.", "run")
	reg.AddScrapeHook(func() {
		for _, ro := range fn() {
			wall.With(ro.Run).Set(ro.WallSeconds)
			cpu.With(ro.Run).Set(ro.CPUSeconds)
			alloc.With(ro.Run).Set(float64(ro.AllocBytes))
			ingest.With(ro.Run).Set(float64(ro.IngestBytes))
		}
	})
}
