package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"grade10/internal/alert"
	"grade10/internal/obs"
	"grade10/internal/report"
)

// Trigger names the condition that caused a bundle capture — the rate-limit
// key and the manifest's provenance.
type Trigger string

const (
	// TriggerAlert: an alert rule transitioned to firing.
	TriggerAlert Trigger = "alert"
	// TriggerStall: the fleet stall watchdog tore a run down.
	TriggerStall Trigger = "stall"
	// TriggerShed: the fleet admission scheduler shed a registration.
	TriggerShed Trigger = "shed"
	// TriggerHealth: /healthz transitioned to degraded.
	TriggerHealth Trigger = "health"
	// TriggerSignal: the process received SIGQUIT.
	TriggerSignal Trigger = "signal"
	// TriggerManual: an operator POSTed /debug/bundle.
	TriggerManual Trigger = "manual"
)

// Config tunes the bundle capturer.
type Config struct {
	// Dir is where bundle directories are written (required; created).
	Dir string
	// MaxBundles bounds retention; the oldest bundle is evicted first.
	// Default 16.
	MaxBundles int
	// MinInterval rate-limits captures per trigger kind; a second trigger of
	// the same kind inside the interval is counted, not captured. Default 1m.
	MinInterval time.Duration
	// CPUProfile is how long the capture samples the CPU profile; 0 takes
	// 250ms, negative disables the CPU profile.
	CPUProfile time.Duration
	// Recorder supplies the rings snapshotted into the bundle (may be nil).
	Recorder *Recorder
	// Alerts, when set, snapshots the alert lifecycle into alerts.json.
	Alerts *alert.Evaluator
	// Overhead, when set, snapshots per-run overhead into overhead.json.
	Overhead func() []obs.RunOverhead
	// Logger receives capture diagnostics; default discards.
	Logger *slog.Logger
	// Now is the wall clock; injectable for tests.
	Now func() time.Time
}

// Manifest describes one captured bundle: its trigger, the runs involved,
// and the files written. It is the /debug/bundles listing row.
type Manifest struct {
	ID               string   `json:"id"`
	Seq              int      `json:"seq"`
	Trigger          Trigger  `json:"trigger"`
	Detail           string   `json:"detail,omitempty"`
	Runs             []string `json:"runs,omitempty"`
	CapturedAtUnixNS int64    `json:"captured_at_unix_ns"`
	Version          string   `json:"version"`
	GoVersion        string   `json:"go_version"`
	Files            []string `json:"files"`
	// Notes records per-section capture problems (e.g. the CPU profiler was
	// already running); a note never fails the bundle.
	Notes []string `json:"notes,omitempty"`
}

// Capturer writes triggered diagnostics bundles. Triggers arriving from
// engine flush paths are queued and captured on a background goroutine — a
// capture takes CPUProfile plus pprof serialization time and must never run
// under an engine lock.
type Capturer struct {
	cfg Config

	mu   sync.Mutex
	seq  int
	last map[Trigger]time.Time

	reqs      chan captureReq
	closeOnce sync.Once
	done      chan struct{}

	captured    *obs.Counter
	evicted     *obs.Counter
	ratelimited *obs.Counter
	failed      *obs.Counter
	droppedBusy *obs.Counter
}

type captureReq struct {
	trigger Trigger
	detail  string
	runs    []string
}

// NewCapturer creates the bundle directory, resumes the bundle sequence from
// any bundles already on disk, and starts the capture worker. Call Close to
// drain it.
func NewCapturer(cfg Config) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: Config.Dir is required")
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 16
	}
	if cfg.MinInterval == 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Capturer{
		cfg:  cfg,
		last: map[Trigger]time.Time{},
		reqs: make(chan captureReq, 4),
		done: make(chan struct{}),
	}
	for _, b := range c.scan() {
		if b.seq >= c.seq {
			c.seq = b.seq + 1
		}
	}
	go c.worker()
	return c, nil
}

// RegisterMetrics exposes the capture counters on reg.
func (c *Capturer) RegisterMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.captured = reg.Counter("grade10_bundles_total", "Diagnostics bundles captured.")
	c.evicted = reg.Counter("grade10_bundles_evicted_total",
		"Diagnostics bundles evicted oldest-first by the retention cap.")
	c.ratelimited = reg.Counter("grade10_bundles_ratelimited_total",
		"Bundle triggers suppressed by the per-trigger-kind rate limit.")
	c.failed = reg.Counter("grade10_bundles_failed_total", "Bundle captures that errored.")
	c.droppedBusy = reg.Counter("grade10_bundles_dropped_total",
		"Bundle triggers dropped because the capture queue was full.")
	reg.GaugeFunc("grade10_bundles_retained", "Diagnostics bundles currently on disk.",
		func() float64 { return float64(len(c.scan())) })
}

// Trigger requests an asynchronous capture. It never blocks: rate-limited or
// queue-full triggers are counted and dropped. Safe to call from engine
// flush paths (under engine locks).
func (c *Capturer) Trigger(tr Trigger, detail string, runs []string) {
	if c == nil {
		return
	}
	if !c.admit(tr) {
		return
	}
	select {
	case c.reqs <- captureReq{tr, detail, runs}:
	default:
		c.droppedBusy.Inc()
	}
}

// admit applies the per-trigger-kind rate limit, claiming the slot on
// success so concurrent triggers cannot double-capture.
func (c *Capturer) admit(tr Trigger) bool {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if last, ok := c.last[tr]; ok && now.Sub(last) < c.cfg.MinInterval {
		c.ratelimited.Inc()
		return false
	}
	c.last[tr] = now
	return true
}

// CaptureSync runs one capture inline (the manual POST path and tests),
// applying the same rate limit. A rate-limited capture returns
// (nil, ErrRateLimited).
func (c *Capturer) CaptureSync(tr Trigger, detail string, runs []string) (*Manifest, error) {
	if !c.admit(tr) {
		return nil, ErrRateLimited
	}
	return c.capture(captureReq{tr, detail, runs})
}

// ErrRateLimited reports a capture suppressed by the per-trigger-kind
// minimum interval.
var ErrRateLimited = fmt.Errorf("flight: bundle capture rate-limited")

// Close stops the worker after draining queued captures. A nil capturer
// (bundle capture disabled) has nothing to close.
func (c *Capturer) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() { close(c.reqs) })
	<-c.done
}

func (c *Capturer) worker() {
	defer close(c.done)
	for req := range c.reqs {
		if _, err := c.capture(req); err != nil {
			c.cfg.Logger.Warn("bundle capture failed", "trigger", string(req.trigger), "err", err)
		}
	}
}

// capture writes one bundle directory and sweeps retention.
func (c *Capturer) capture(req captureReq) (*Manifest, error) {
	c.mu.Lock()
	seq := c.seq
	c.seq++
	c.mu.Unlock()

	id := fmt.Sprintf("%06d-%s", seq, req.trigger)
	dir := filepath.Join(c.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.failed.Inc()
		return nil, err
	}
	ver, gover := obs.BuildInfo()
	m := &Manifest{
		ID: id, Seq: seq, Trigger: req.trigger, Detail: req.detail,
		Runs: req.runs, CapturedAtUnixNS: c.cfg.Now().UnixNano(),
		Version: ver, GoVersion: gover,
	}
	note := func(format string, args ...any) { m.Notes = append(m.Notes, fmt.Sprintf(format, args...)) }
	write := func(name string, fn func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			note("%s: %v", name, err)
			return
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			note("%s: %v", name, err)
			return
		}
		m.Files = append(m.Files, name)
	}

	// pprof sections. The goroutine dump is written twice: proto for go tool
	// pprof, debug=2 text for eyeballs.
	write("goroutine.pprof", func(w io.Writer) error { return pprof.Lookup("goroutine").WriteTo(w, 0) })
	write("goroutines.txt", func(w io.Writer) error { return pprof.Lookup("goroutine").WriteTo(w, 2) })
	write("heap.pprof", func(w io.Writer) error { return pprof.Lookup("heap").WriteTo(w, 0) })
	write("mutex.pprof", func(w io.Writer) error { return pprof.Lookup("mutex").WriteTo(w, 0) })
	if c.cfg.CPUProfile > 0 {
		write("cpu.pprof", func(w io.Writer) error {
			if err := pprof.StartCPUProfile(w); err != nil {
				// Another CPU profile (e.g. /debug/pprof/profile) is running;
				// note it and move on — never fail the bundle.
				return err
			}
			time.Sleep(c.cfg.CPUProfile)
			pprof.StopCPUProfile()
			return nil
		})
	}

	// Span ring as a Perfetto-loadable Chrome trace, via the existing
	// TraceBuilder; validated before writing so a malformed trace is a note,
	// not a corrupt artifact.
	if rec := c.cfg.Recorder; rec != nil && rec.Tracer != nil {
		write("trace.json", func(w io.Writer) error {
			b, err := report.BuildTraceEvents(nil, rec.Tracer)
			if err != nil {
				return err
			}
			if err := b.ValidateTrace(); err != nil {
				return err
			}
			return b.WriteJSON(w)
		})
	}

	if rec := c.cfg.Recorder; rec != nil {
		if rec.LogRing != nil {
			write("logs.json", func(w io.Writer) error {
				return writeJSONIndent(w, struct {
					Dropped uint64          `json:"dropped"`
					Records []obs.LogRecord `json:"records"`
				}{rec.LogRing.Dropped(), rec.LogRing.Records(-8, 0)})
			})
		}
		write("windows.json", func(w io.Writer) error {
			return writeJSONIndent(w, rec.WindowSnapshots())
		})
		write("alert_events.json", func(w io.Writer) error {
			return writeJSONIndent(w, rec.RecentAlerts())
		})
	}
	if c.cfg.Alerts != nil {
		write("alerts.json", func(w io.Writer) error {
			return writeJSONIndent(w, c.cfg.Alerts.Snapshot())
		})
	}
	if c.cfg.Overhead != nil {
		write("overhead.json", func(w io.Writer) error {
			return writeJSONIndent(w, struct {
				Runs []obs.RunOverhead `json:"runs"`
			}{c.cfg.Overhead()})
		})
	}

	sort.Strings(m.Files)
	mf, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		c.failed.Inc()
		return nil, err
	}
	err = writeJSONIndent(mf, m)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		c.failed.Inc()
		return nil, err
	}
	c.captured.Inc()
	c.cfg.Logger.Info("captured diagnostics bundle",
		"bundle", id, "trigger", string(req.trigger), "files", len(m.Files))
	c.sweep()
	return m, nil
}

// bundleEntry is one on-disk bundle directory.
type bundleEntry struct {
	id  string
	seq int
}

// scan lists bundle directories by their sequence-prefixed names, oldest
// first.
func (c *Capturer) scan() []bundleEntry {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []bundleEntry
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dash := strings.IndexByte(name, '-')
		if dash <= 0 {
			continue
		}
		seq, err := strconv.Atoi(name[:dash])
		if err != nil {
			continue
		}
		out = append(out, bundleEntry{id: name, seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// sweep evicts the oldest bundles past the retention cap.
func (c *Capturer) sweep() {
	bundles := c.scan()
	for len(bundles) > c.cfg.MaxBundles {
		victim := bundles[0]
		bundles = bundles[1:]
		if err := os.RemoveAll(filepath.Join(c.cfg.Dir, victim.id)); err != nil {
			c.cfg.Logger.Warn("bundle eviction failed", "bundle", victim.id, "err", err)
			continue
		}
		c.evicted.Inc()
		c.cfg.Logger.Info("evicted diagnostics bundle", "bundle", victim.id)
	}
}

// List returns the manifests of every retained bundle, oldest first.
// Bundles whose manifest is unreadable (e.g. a capture in flight) appear
// with only their ID.
func (c *Capturer) List() []Manifest {
	var out []Manifest
	for _, b := range c.scan() {
		m := Manifest{ID: b.id, Seq: b.seq}
		if data, err := os.ReadFile(filepath.Join(c.cfg.Dir, b.id, "manifest.json")); err == nil {
			_ = json.Unmarshal(data, &m)
		}
		out = append(out, m)
	}
	return out
}

// Dir returns the bundle root directory.
func (c *Capturer) Dir() string { return c.cfg.Dir }

// WatchHealth polls degraded and captures a TriggerHealth bundle on each
// healthy-to-degraded transition, until stop closes. interval <= 0 takes 5s.
func (c *Capturer) WatchHealth(stop <-chan struct{}, interval time.Duration, degraded func() (bool, string)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		wasDegraded := false
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				bad, reason := degraded()
				if bad && !wasDegraded {
					c.Trigger(TriggerHealth, reason, nil)
				}
				wasDegraded = bad
			}
		}
	}()
}

func writeJSONIndent(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
