// Package stream is Grade10's online characterization engine: it consumes
// enginelog events and monitoring samples incrementally — from a file tail,
// an io.Reader, or an in-process tap into a running engine — and maintains a
// live performance profile while the job is still executing, the way GiViP
// streams profiling data out of a running Giraph cluster.
//
// The engine discretizes virtual time on the same timeslice grid as the
// batch pipeline and groups slices into fixed-width windows. A window is
// flushed as soon as the watermark (the furthest instant both the log feed
// and the monitoring feed have covered) passes its end: the window's leaves
// and clipped monitoring samples run through the same attribution and
// bottleneck implementations as the batch path (attribution.AttributeWindow,
// bottleneck.DetectWindow), and the results fold into cumulative live
// aggregates plus a bounded ring of recent windows.
//
// Memory is bounded by window state, not by the trace: closed leaf phases
// retire once the flushed frontier passes them, consumed monitoring samples
// are trimmed, and the raw event stream is never buffered — unless the
// engine is configured to RetainForFinal, in which case it additionally
// accumulates the raw inputs so Finalize can run the exact batch pipeline
// (grade10.Characterize) and produce output byte-identical to cmd/grade10
// on the same run. That equivalence is the correctness anchor of the online
// path; the windowed live view is a documented approximation (monitoring
// samples straddling a window boundary are split, and blocking intervals
// reported after their window flushed are only counted).
//
// Robustness: malformed log lines are counted and skipped (never fatal),
// events that violate phase nesting are counted as invalid, gaps in
// monitoring are zero-filled, and Finalize force-closes still-open phases so
// a truncated stream still yields a profile.
package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"grade10/internal/alert"
	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/explain"
	"grade10/internal/grade10"
	"grade10/internal/metrics"
	"grade10/internal/obs"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// Config tunes the online engine.
type Config struct {
	// Models are the expert inputs for the engine being observed (required).
	Models grade10.Models
	// Timeslice is the analysis granularity; default grade10.DefaultTimeslice.
	Timeslice vtime.Duration
	// WindowSlices is the number of timeslices per flush window; default 64.
	WindowSlices int
	// MaxWindows bounds the ring of retained per-window results; default 32.
	MaxWindows int
	// ExpectedInstances is how many monitoring resource instances the run
	// produces (machines × modeled consumable resources). Until that many
	// feeds have appeared (or MonitoringDone), windows are held back so the
	// live aggregates never bake in half-arrived monitoring. Default 1:
	// wait for monitoring to exist at all.
	ExpectedInstances int
	// RetainForFinal keeps the raw event stream and full monitoring so
	// Finalize can run the exact batch pipeline. Disable for strictly
	// bounded memory; Finalize then returns only the windowed aggregates.
	RetainForFinal bool
	// Parallelism is the worker count for per-window attribution and, in
	// retain mode, the final batch pipeline. Results are identical for every
	// value; 0 takes par.Default().
	Parallelism int
	// Tracer collects self-trace spans for window flushes, the per-instance
	// attribution jobs inside them, and (in retain mode) the final batch
	// pipeline. Nil disables self-tracing at zero cost.
	Tracer *obs.Tracer
	// Explain enables provenance capture: each flushed window keeps an
	// explain.Explainer (ring bounded by MaxWindows, like the window
	// results), and in retain mode Finalize builds one exact full-run
	// explainer. Off by default — capture costs memory proportional to the
	// retained windows.
	Explain bool
	// OnWindowFlush, when set, is called after each window flush with the
	// flushed WindowResult (immutable once handed over), and once more with
	// nil after Finalize completes. It is invoked with the engine lock held:
	// the callback must be fast and must not call back into the engine —
	// hand the result to a channel or a non-blocking broker and return.
	// This is the live UI's SSE feed.
	OnWindowFlush func(*WindowResult)
	// Alerts, when set, is evaluated after every window flush against an
	// observation built from the flushed window and the engine counters.
	// Evaluation order is deterministic, so results are identical at every
	// Parallelism.
	Alerts *alert.Evaluator
	// OnAlert, when set, receives the state transitions each window
	// evaluation produced (only called when there are any). Like
	// OnWindowFlush it runs with the engine lock held: hand the events to a
	// non-blocking sink and return.
	OnAlert func([]alert.Event)
	// Now is the wall clock used for ingest staleness tracking; nil takes
	// time.Now. Injectable for tests.
	Now func() time.Time
	// Account, when set, accrues the framework's own cost of characterizing
	// this run: wall/CPU time in the compute sections (window flush, final
	// characterization), heap bytes allocated across them, and raw ingest
	// volume. Accounting is diagnostics only — nothing it measures feeds
	// analysis output, so results stay byte-identical with it on or off.
	// Nil disables it; instrumented paths then pay one predictable branch.
	Account *obs.RunAccount
}

func (c *Config) fill() error {
	if c.Models.Exec == nil || c.Models.Res == nil || c.Models.Rules == nil {
		return fmt.Errorf("stream: Config.Models must be fully populated")
	}
	if c.Timeslice <= 0 {
		c.Timeslice = grade10.DefaultTimeslice
	}
	if c.WindowSlices <= 0 {
		c.WindowSlices = 64
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 32
	}
	return nil
}

// Stats are the engine's ingest and robustness counters.
type Stats struct {
	// Lines, ParseErrors and Truncated come from the line parser.
	Lines       int64 `json:"lines"`
	ParseErrors int64 `json:"parse_errors"`
	Truncated   int64 `json:"truncated_lines"`
	// Events counts accepted events; InvalidEvents counts structurally
	// invalid ones (unknown phase, duplicate start, end before start);
	// LateEvents counts blocking intervals that began before the flushed
	// frontier (their window was computed without them); DroppedEvents
	// counts events shed before ingest — none today: the in-process tap
	// (service.Tap) blocks instead, and the field stays for the
	// dropped_events alert metric and its /metrics family.
	Events        int64 `json:"events"`
	InvalidEvents int64 `json:"invalid_events"`
	LateEvents    int64 `json:"late_events"`
	DroppedEvents int64 `json:"dropped_events"`
	// Samples counts accepted monitoring samples; InvalidSamples counts
	// dropped ones (overlaps, inverted intervals); GapsFilled counts
	// zero-filled monitoring gaps; IgnoredSamples counts samples for
	// resources the model does not cover (as in the batch path).
	Samples        int64 `json:"samples"`
	InvalidSamples int64 `json:"invalid_samples"`
	GapsFilled     int64 `json:"gaps_filled"`
	IgnoredSamples int64 `json:"ignored_samples"`
	// ForcedClosures counts phases force-closed by Finalize on a truncated
	// stream.
	ForcedClosures int64 `json:"forced_closures"`
	// WindowsFlushed counts flushed windows.
	WindowsFlushed int64 `json:"windows_flushed"`
}

// MemStats exposes the engine's retained-state sizes, for bounded-memory
// verification.
type MemStats struct {
	OpenPhases      int
	PendingLeaves   int
	TreePhases      int
	BufferedSamples int
	RetainedEvents  int
	Windows         int
}

// instFeed is the per-resource-instance monitoring buffer.
type instFeed struct {
	res      *core.Resource
	machine  int
	key      string
	capacity float64
	// samples[firstPending:] are not yet fully behind the flushed frontier.
	// In bounded mode the prefix is physically dropped.
	samples      []metrics.Sample
	firstPending int
	lastEnd      vtime.Time
	seen         bool
}

// typeAgg aggregates closed phase instances of one type.
type typeAgg struct {
	count   int
	total   vtime.Duration
	max     vtime.Duration
	blocked map[string]vtime.Duration
}

// bottleneckKey identifies one aggregated bottleneck row.
type bottleneckKey struct {
	TypePath string
	Resource string
	Kind     bottleneck.Kind
}

// bottleneckAgg accumulates one bottleneck row across windows.
type bottleneckAgg struct {
	Time    vtime.Duration
	Phases  int
	Windows int
}

// instAgg accumulates one resource instance across windows.
type instAgg struct {
	consumed     float64 // unit·seconds
	attributed   float64
	unattributed float64
	satSeconds   float64
	lastUtil     float64
	spanSeconds  float64 // flushed seconds this instance was profiled over
}

// Engine is the online characterization engine. All methods are safe for
// concurrent use; ingest methods are typically called from one goroutine
// (or a Tap) while HTTP handlers snapshot from others.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	parser enginelog.StreamParser

	originSet bool
	origin    vtime.Time // timeslice grid origin: first phase start
	maxEnd    vtime.Time // latest phase end seen

	root    *core.Phase
	open    map[string]*core.Phase
	pending []*core.Phase // closed leaves not yet retired

	feeds     map[string]*instFeed
	feedOrder []string

	watermark        vtime.Time
	logDone, monDone bool

	nextWindow int        // index of the next window to flush
	frontier   vtime.Time // end of the last flushed window

	windows  []*WindowResult
	winEx    []*windowExplainer // parallel ring when cfg.Explain
	finalEx  *explain.Explainer
	explainQ int64 // explain queries served
	instAggs map[string]*instAgg
	btlAggs  map[bottleneckKey]*bottleneckAgg
	typeAggs map[string]*typeAgg
	heatAggs map[heatKey]float64
	counters map[string]*CounterValue

	// Retained raw inputs (RetainForFinal only).
	events []enginelog.Event

	stats     Stats
	finalized bool
	finalOut  *grade10.Output
	finalErr  error

	// lastIngest is the wall-clock time of the most recent input (event,
	// line, or sample — valid or not); starts at engine creation so a feed
	// that never produces anything still reads as stale.
	lastIngest time.Time
}

// New creates an engine for one run.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{
		cfg:        cfg,
		root:       &core.Phase{Path: "/", Machine: -1, Start: vtime.Infinity},
		open:       map[string]*core.Phase{},
		feeds:      map[string]*instFeed{},
		instAggs:   map[string]*instAgg{},
		btlAggs:    map[bottleneckKey]*bottleneckAgg{},
		typeAggs:   map[string]*typeAgg{},
		heatAggs:   map[heatKey]float64{},
		counters:   map[string]*CounterValue{},
		lastIngest: cfg.Now(),
	}, nil
}

// Tracer returns the engine's self-tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.cfg.Tracer }

// IngestAge returns the wall-clock age of the most recent ingested input
// (any event, line, or sample; from engine creation before the first one)
// and whether the engine has been finalized — a finalized engine is complete,
// not stale.
func (e *Engine) IngestAge() (age time.Duration, finalized bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Now().Sub(e.lastIngest), e.finalized
}

// Stale reports whether the engine's input is older than after while the
// run is still open and, if so, why ("last ingest 10s ago (threshold 5s)").
// after <= 0 disables the check. This is the one staleness rule: the
// single-run /healthz and the fleet's health both ask it.
func (e *Engine) Stale(after time.Duration) (bool, string) {
	if after <= 0 {
		return false, ""
	}
	age, finalized := e.IngestAge()
	if finalized || age <= after {
		return false, ""
	}
	return true, fmt.Sprintf("last ingest %s ago (threshold %s)", age.Round(time.Millisecond), after)
}

// Timeslice returns the engine's analysis granularity.
func (e *Engine) Timeslice() vtime.Duration { return e.cfg.Timeslice }

// IngestLine feeds one log line. Malformed lines are counted and skipped.
func (e *Engine) IngestLine(line string) {
	e.cfg.Account.AddIngest(int64(len(line)), 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastIngest = e.cfg.Now()
	ev, ok, _ := e.parser.ParseLine(line)
	if ok {
		e.ingestEventLocked(ev)
	}
}

// IngestChunk feeds a raw byte range of the execution log in either format;
// the encoding is auto-detected from the first bytes fed. Chunks may split
// lines or binary records arbitrarily.
func (e *Engine) IngestChunk(chunk []byte) {
	e.cfg.Account.AddIngest(int64(len(chunk)), 0)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastIngest = e.cfg.Now()
	e.parser.Feed(chunk, e.ingestEventLocked)
}

// IngestReader streams a whole log (or log prefix) in either format. Only
// I/O errors are returned; malformed input is counted.
func (e *Engine) IngestReader(r io.Reader) error {
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			e.IngestChunk(buf[:n])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// IngestEvent feeds one already-parsed event (the in-process tap path).
func (e *Engine) IngestEvent(ev enginelog.Event) {
	e.cfg.Account.AddIngest(0, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastIngest = e.cfg.Now()
	e.ingestEventLocked(ev)
}

func (e *Engine) ingestEventLocked(ev enginelog.Event) {
	switch ev.Kind {
	case enginelog.PhaseStart:
		if !e.originSet {
			e.originSet = true
			e.origin = ev.Time
			e.frontier = ev.Time
			e.root.Start = ev.Time
		}
		if _, dup := e.open[ev.Path]; dup {
			e.stats.InvalidEvents++
			return
		}
		pt := e.cfg.Models.Exec.LookupInstance(ev.Path)
		if pt == nil {
			e.stats.InvalidEvents++
			return
		}
		parent := e.root
		if pp := enginelog.Parent(ev.Path); pp != "/" {
			var ok bool
			if parent, ok = e.open[pp]; !ok {
				e.stats.InvalidEvents++
				return
			}
		}
		machine := ev.Machine
		if machine < 0 {
			machine = parent.Machine
		}
		ph := &core.Phase{Path: ev.Path, Type: pt, Parent: parent,
			Start: ev.Time, End: -1, Machine: machine}
		parent.Children = append(parent.Children, ph)
		e.open[ev.Path] = ph
		e.noteWatermarkLocked(ev.Time)

	case enginelog.PhaseEnd:
		ph, ok := e.open[ev.Path]
		if !ok || ev.Time < ph.Start {
			e.stats.InvalidEvents++
			return
		}
		e.closePhaseLocked(ph, ev.Time)
		e.noteWatermarkLocked(ev.Time)

	case enginelog.Blocked:
		ph, ok := e.open[ev.Path]
		if !ok {
			e.stats.InvalidEvents++
			return
		}
		if ev.Time < e.frontier {
			e.stats.LateEvents++
		}
		ph.Blocked = append(ph.Blocked, core.BlockInterval{
			Resource: ev.Resource, Start: ev.Time, End: ev.End,
		})
		// Closed, still-pending descendants inherit the new stall.
		ph.InvalidateBlockIndex()
		e.noteWatermarkLocked(ev.End)

	case enginelog.Counter:
		c := e.counters[ev.Name]
		if c == nil {
			c = &CounterValue{}
			e.counters[ev.Name] = c
		}
		c.Count++
		c.Sum += ev.Value
		c.Last = ev.Value
		e.noteWatermarkLocked(ev.Time)

	default:
		e.stats.InvalidEvents++
		return
	}
	e.stats.Events++
	if e.cfg.RetainForFinal {
		e.events = append(e.events, ev)
	}
	e.maybeFlushLocked()
}

func (e *Engine) closePhaseLocked(ph *core.Phase, end vtime.Time) {
	ph.End = end
	delete(e.open, ph.Path)
	sort.Slice(ph.Blocked, func(i, j int) bool { return ph.Blocked[i].Start < ph.Blocked[j].Start })
	ph.InvalidateBlockIndex()
	if end > e.maxEnd {
		e.maxEnd = end
	}
	if e.root.End < end {
		e.root.End = end
	}
	if len(ph.Children) == 0 {
		e.pending = append(e.pending, ph)
	}
	tp := "?"
	if ph.Type != nil {
		tp = ph.Type.Path()
	}
	ta := e.typeAggs[tp]
	if ta == nil {
		ta = &typeAgg{blocked: map[string]vtime.Duration{}}
		e.typeAggs[tp] = ta
	}
	ta.count++
	d := ph.Duration()
	ta.total += d
	if d > ta.max {
		ta.max = d
	}
	for _, b := range ph.Blocked {
		ta.blocked[b.Resource] += b.Duration()
	}
}

func (e *Engine) noteWatermarkLocked(t vtime.Time) {
	if t > e.watermark {
		e.watermark = t
	}
}

// IngestSample feeds one monitoring record. Samples for resources the model
// does not cover are ignored (as in the batch path); overlapping samples are
// dropped and gaps zero-filled, both counted.
func (e *Engine) IngestSample(machine int, resource string, capacity float64, s metrics.Sample) {
	e.cfg.Account.AddIngest(0, 1)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastIngest = e.cfg.Now()
	res := e.cfg.Models.Res.Lookup(resource)
	if res == nil || res.Kind != core.Consumable {
		e.stats.IgnoredSamples++
		return
	}
	if s.End <= s.Start {
		e.stats.InvalidSamples++
		return
	}
	if !res.PerMachine {
		machine = core.GlobalMachine
	}
	key := instKey(resource, machine)
	f := e.feeds[key]
	if f == nil {
		f = &instFeed{res: res, machine: machine, key: key, capacity: capacity}
		e.feeds[key] = f
		e.feedOrder = append(e.feedOrder, key)
	}
	if f.seen {
		switch {
		case s.Start < f.lastEnd:
			e.stats.InvalidSamples++
			return
		case s.Start > f.lastEnd:
			f.samples = append(f.samples, metrics.Sample{Start: f.lastEnd, End: s.Start})
			e.stats.GapsFilled++
		}
	}
	f.samples = append(f.samples, s)
	f.lastEnd = s.End
	f.seen = true
	e.stats.Samples++
	e.maybeFlushLocked()
}

// IngestMonitoringLine feeds one monitoring CSV line (rundir format).
// Malformed lines are counted as invalid samples and skipped.
func (e *Engine) IngestMonitoringLine(line string) {
	e.cfg.Account.AddIngest(int64(len(line)), 0)
	row, ok, err := rundir.ParseMonitoringLine(line)
	if err != nil {
		e.mu.Lock()
		e.stats.InvalidSamples++
		e.mu.Unlock()
		return
	}
	if ok {
		e.IngestRow(row)
	}
}

// IngestRow feeds one parsed monitoring record.
func (e *Engine) IngestRow(row rundir.MonitoringRow) {
	e.IngestSample(row.Machine, row.Resource, row.Capacity, row.Sample)
}

// LogDone marks the event feed complete; remaining windows no longer wait
// on the log watermark. Any buffered partial line or binary record is
// flushed first.
func (e *Engine) LogDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parser.Finish(e.ingestEventLocked)
	e.logDone = true
	e.maybeFlushLocked()
}

// MonitoringDone marks the monitoring feed complete.
func (e *Engine) MonitoringDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.monDone = true
	e.maybeFlushLocked()
}

func instKey(resource string, machine int) string {
	if machine == core.GlobalMachine {
		return resource + "@global"
	}
	return fmt.Sprintf("%s@%d", resource, machine)
}

// windowDur returns the window width in virtual time.
func (e *Engine) windowDur() vtime.Duration {
	return e.cfg.Timeslice * vtime.Duration(e.cfg.WindowSlices)
}

// flushBoundLocked returns the instant up to which windows may flush: the
// minimum of the log and monitoring watermarks, each lifted to infinity
// once its feed is done. Until MonitoringDone, flushing waits for at least
// ExpectedInstances monitoring feeds (monitoring often arrives grouped per
// instance; flushing on the first group would bake zero consumption for
// the instances still in flight into the live aggregates).
func (e *Engine) flushBoundLocked() (vtime.Time, bool) {
	logWM := e.watermark
	if e.logDone {
		logWM = vtime.Infinity
	}
	monWM := vtime.Infinity
	if !e.monDone {
		want := e.cfg.ExpectedInstances
		if want < 1 {
			want = 1
		}
		if len(e.feedOrder) < want {
			return 0, false
		}
		for _, key := range e.feedOrder {
			if f := e.feeds[key]; f.lastEnd < monWM {
				monWM = f.lastEnd
			}
		}
	}
	return vtime.Min(logWM, monWM), true
}

func (e *Engine) maybeFlushLocked() {
	if !e.originSet || e.finalized {
		return
	}
	bound, ok := e.flushBoundLocked()
	if !ok {
		return
	}
	done := e.logDone && e.monDone
	wd := e.windowDur()
	for {
		w0 := e.origin.Add(wd * vtime.Duration(e.nextWindow))
		w1 := w0.Add(wd)
		if done {
			end := e.maxEnd
			if w0 >= end {
				return
			}
			if w1 > end {
				w1 = end // final clipped window
			}
		} else if w1 > bound {
			return
		}
		e.flushWindowLocked(w0, w1)
		e.nextWindow++
		e.frontier = w1
		e.retireLocked()
	}
}

// flushWindowLocked attributes and analyzes one window [w0, w1) through the
// shared batch implementations and folds the result into the live state.
func (e *Engine) flushWindowLocked(w0, w1 vtime.Time) {
	if a := e.cfg.Account; a != nil {
		// The flush runs on one goroutine (attribution workers are measured
		// by their enclosing wall time), so wall ≈ CPU for this section.
		start := time.Now()
		alloc0 := obs.HeapAllocBytes()
		defer func() {
			d := time.Since(start)
			a.AddWall(d)
			a.AddCPU(d)
			a.AddAlloc(int64(obs.HeapAllocBytes() - alloc0))
			a.AddWindow()
		}()
	}
	win := core.NewTimeslices(w0, w1, e.cfg.Timeslice)

	// Leaves overlapping the window: retired-pending closed leaves plus
	// currently-open model-leaf phases (extended provisionally to the
	// watermark). Sorted as tr.Leaves() sorts, so attribution accumulates
	// in the same deterministic order as the batch path.
	var leaves []*core.Phase
	for _, ph := range e.pending {
		if ph.Start < w1 && ph.End > w0 {
			leaves = append(leaves, ph)
		}
	}
	var reopened []*core.Phase
	horizon := vtime.Max(e.watermark, w1)
	for _, ph := range e.open {
		if ph.Start < w1 && len(ph.Children) == 0 && ph.Type != nil && ph.Type.IsLeaf() {
			ph.End = horizon
			ph.InvalidateBlockIndex()
			reopened = append(reopened, ph)
			leaves = append(leaves, ph)
		}
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].Start != leaves[j].Start {
			return leaves[i].Start < leaves[j].Start
		}
		return leaves[i].Path < leaves[j].Path
	})

	rt := core.NewResourceTrace()
	for _, key := range e.feedOrder {
		f := e.feeds[key]
		sub := f.samples[f.firstPending:]
		lo := 0
		for lo < len(sub) && sub[lo].End <= w0 {
			lo++
		}
		hi := lo
		for hi < len(sub) && sub[hi].Start < w1 {
			hi++
		}
		if err := rt.Add(f.res, f.machine, &metrics.SampleSeries{Samples: sub[lo:hi]}); err != nil {
			continue // unreachable: feeds are contiguous by construction
		}
	}

	tr := &core.ExecutionTrace{Root: e.root, Start: w0, End: w1}
	span := e.cfg.Tracer.StartSpan("window-flush", -1)
	if e.cfg.Tracer.Enabled() {
		span.SetItems(int64(len(leaves)))
		span.SetWindow(int64(w0), int64(w1))
	}
	var rec *explain.Recorder
	var arec attribution.Recorder // stays a true nil interface when disabled
	if e.cfg.Explain {
		rec = explain.NewRecorder(0)
		arec = rec
	}
	prof, err := attribution.AttributeWindowProv(tr, leaves, rt, e.cfg.Models.Rules, win,
		e.cfg.Parallelism, e.cfg.Tracer, arec)
	for _, ph := range reopened {
		ph.End = -1
		ph.InvalidateBlockIndex()
	}
	if err != nil {
		span.End()
		return // unreachable: windows are never empty
	}
	rep := bottleneck.DetectWindow(prof, bottleneck.Config{})
	wr := e.foldWindowLocked(win, prof, rep)
	if e.cfg.OnWindowFlush != nil {
		e.cfg.OnWindowFlush(wr)
	}
	if e.cfg.Alerts != nil {
		if evs := e.cfg.Alerts.Eval(e.windowObsLocked(wr, w1)); len(evs) > 0 && e.cfg.OnAlert != nil {
			e.cfg.OnAlert(evs)
		}
	}
	if rec != nil {
		ex := explain.NewExplainer(prof, rec)
		e.winEx = append(e.winEx, &windowExplainer{W0: w0, W1: w1, Ex: ex})
		if over := len(e.winEx) - e.cfg.MaxWindows; over > 0 {
			e.winEx = append(e.winEx[:0], e.winEx[over:]...)
		}
	}
	span.End()
}

// windowObsLocked builds the alert observation for one flushed window: the
// window's coverage and per-instance figures plus the engine's cumulative
// robustness counters. Everything here derives from virtual time and
// deterministic fold state — never the wall clock — so alert evaluation is
// bit-identical at every Parallelism.
func (e *Engine) windowObsLocked(wr *WindowResult, w1 vtime.Time) alert.Obs {
	st := e.statsLocked()
	scalars := map[string]float64{
		"coverage":        wr.Coverage,
		"parse_errors":    float64(st.ParseErrors),
		"truncated_lines": float64(st.Truncated),
		"invalid_events":  float64(st.InvalidEvents),
		"late_events":     float64(st.LateEvents),
		"dropped_events":  float64(st.DroppedEvents),
		"invalid_samples": float64(st.InvalidSamples),
		"gaps_filled":     float64(st.GapsFilled),
		"ignored_samples": float64(st.IgnoredSamples),
		"forced_closures": float64(st.ForcedClosures),
		"events":          float64(st.Events),
		"samples":         float64(st.Samples),
		"windows_flushed": float64(st.WindowsFlushed),
		"open_phases":     float64(len(e.open)),
	}
	lag := 0.0
	if e.watermark > w1 {
		lag = e.watermark.Sub(w1).Seconds()
	}
	scalars["lag_seconds"] = lag

	util := make(map[string]float64, len(wr.Instances))
	sat := make(map[string]float64, len(wr.Instances))
	for _, wi := range wr.Instances {
		util[wi.Key] = wi.Utilization
		sat[wi.Key] = float64(wi.SaturatedSlices)
	}
	btl := map[string]float64{}
	for _, b := range wr.Bottlenecks {
		btl[b.Resource] += b.Seconds
	}
	return alert.Obs{
		Tick:    wr.Index,
		TimeNS:  int64(w1),
		Scalars: scalars,
		Keyed: map[string]map[string]float64{
			"utilization":        util,
			"saturated_slices":   sat,
			"bottleneck_seconds": btl,
		},
	}
}

// windowExplainer pairs one flushed window with its provenance explainer.
type windowExplainer struct {
	W0, W1 vtime.Time
	Ex     *explain.Explainer
}

// retireLocked drops live state wholly behind the flushed frontier.
func (e *Engine) retireLocked() {
	kept := e.pending[:0]
	for _, ph := range e.pending {
		if ph.End > e.frontier {
			kept = append(kept, ph)
		} else {
			e.pruneLocked(ph)
		}
	}
	for i := len(kept); i < len(e.pending); i++ {
		e.pending[i] = nil
	}
	e.pending = kept

	for _, key := range e.feedOrder {
		f := e.feeds[key]
		for f.firstPending < len(f.samples) && f.samples[f.firstPending].End <= e.frontier {
			f.firstPending++
		}
		if !e.cfg.RetainForFinal && f.firstPending > 0 {
			f.samples = append([]metrics.Sample(nil), f.samples[f.firstPending:]...)
			f.firstPending = 0
		}
	}
}

// pruneLocked unlinks a retired phase from the live tree and recursively
// prunes closed, now-childless ancestors behind the frontier.
func (e *Engine) pruneLocked(ph *core.Phase) {
	for ph != nil && ph != e.root {
		parent := ph.Parent
		if parent == nil {
			return
		}
		for i, c := range parent.Children {
			if c == ph {
				parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
				break
			}
		}
		if parent == e.root || len(parent.Children) > 0 ||
			parent.End < 0 || parent.End > e.frontier {
			return
		}
		ph = parent
	}
}

// Finalize marks both feeds complete, flushes every remaining window
// (including the clipped final one), and force-closes still-open phases at
// the watermark (counted). With RetainForFinal it then runs the exact batch
// pipeline over the accumulated inputs and returns output identical to
// grade10.Characterize on the same run; in bounded mode it returns
// (nil, nil) and the windowed aggregates are the final result. Finalize is
// idempotent.
func (e *Engine) Finalize() (*grade10.Output, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finalized {
		return e.finalOut, e.finalErr
	}
	e.parser.Finish(e.ingestEventLocked)
	e.logDone, e.monDone = true, true

	// Force-close surviving phases, deepest first so parents close after
	// children (emitting matching synthetic end events in retain mode).
	if len(e.open) > 0 {
		paths := make([]string, 0, len(e.open))
		for p := range e.open {
			paths = append(paths, p)
		}
		sort.Slice(paths, func(i, j int) bool {
			di, dj := len(enginelog.Split(paths[i])), len(enginelog.Split(paths[j]))
			if di != dj {
				return di > dj
			}
			return paths[i] < paths[j]
		})
		for _, p := range paths {
			ph := e.open[p]
			end := vtime.Max(e.watermark, ph.Start)
			e.closePhaseLocked(ph, end)
			e.stats.ForcedClosures++
			if e.cfg.RetainForFinal {
				e.events = append(e.events, enginelog.Event{
					Kind: enginelog.PhaseEnd, Time: end, Path: p,
				})
			}
		}
	}
	e.maybeFlushLocked()
	e.finalized = true
	if e.cfg.OnWindowFlush != nil {
		e.cfg.OnWindowFlush(nil) // finalize notification
	}

	if !e.cfg.RetainForFinal {
		return nil, nil
	}
	if len(e.events) == 0 {
		e.finalErr = fmt.Errorf("stream: no events ingested")
		return nil, e.finalErr
	}
	in := grade10.Input{
		Log:         &enginelog.Log{Events: e.events},
		Monitoring:  e.monitoringLocked(),
		Models:      e.cfg.Models,
		Timeslice:   e.cfg.Timeslice,
		Parallelism: e.cfg.Parallelism,
		Tracer:      e.cfg.Tracer,
	}
	var rec *explain.Recorder
	if e.cfg.Explain {
		rec = explain.NewRecorder(0)
		in.Recorder = rec
	}
	var finStart time.Time
	var finAlloc0 uint64
	if e.cfg.Account != nil {
		finStart = time.Now()
		finAlloc0 = obs.HeapAllocBytes()
	}
	e.finalOut, e.finalErr = grade10.Characterize(in)
	if a := e.cfg.Account; a != nil {
		d := time.Since(finStart)
		a.AddWall(d)
		a.AddCPU(d)
		a.AddAlloc(int64(obs.HeapAllocBytes() - finAlloc0))
	}
	if e.finalErr == nil && rec != nil {
		e.finalEx = explain.NewExplainer(e.finalOut.Profile, rec)
	}
	return e.finalOut, e.finalErr
}

// monitoringLocked reassembles the batch Monitoring input from the retained
// feeds, in first-seen order as rundir.ReadMonitoring would produce it.
func (e *Engine) monitoringLocked() []cluster.ResourceSamples {
	out := make([]cluster.ResourceSamples, 0, len(e.feedOrder))
	for _, key := range e.feedOrder {
		f := e.feeds[key]
		out = append(out, cluster.ResourceSamples{
			Machine: f.machine, Resource: f.res.Name, Capacity: f.capacity,
			Samples: &metrics.SampleSeries{Samples: f.samples},
		})
	}
	return out
}

// Final returns the exact batch output once Finalize has run in retain
// mode, else nil.
func (e *Engine) Final() *grade10.Output {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finalOut
}

// FinalStatus reports whether Finalize has run, and with what result.
func (e *Engine) FinalStatus() (out *grade10.Output, finalized bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.finalOut, e.finalized, e.finalErr
}

// ExplainEnabled reports whether provenance capture is on.
func (e *Engine) ExplainEnabled() bool { return e.cfg.Explain }

// ExplainQueries returns the number of explain queries served (the
// grade10_explain_queries_total counter).
func (e *Engine) ExplainQueries() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.explainQ
}

// ProvenanceBytes returns the approximate retained size of the captured
// provenance across the window ring and the final explainer (the
// grade10_provenance_bytes gauge).
func (e *Engine) ProvenanceBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, we := range e.winEx {
		total += we.Ex.Rec.Bytes()
	}
	if e.finalEx != nil {
		total += e.finalEx.Rec.Bytes()
	}
	return total
}

// WindowDerivation is one window's (or the final full-run) answer to an
// explain query.
type WindowDerivation struct {
	// WindowStartNS/WindowEndNS bound the window; Final marks the exact
	// full-run derivation produced after Finalize in retain mode.
	WindowStartNS int64               `json:"window_start_ns"`
	WindowEndNS   int64               `json:"window_end_ns"`
	Final         bool                `json:"final"`
	Derivation    *explain.Derivation `json:"derivation"`
}

// Explain answers one explain query against the captured provenance. After
// Finalize in retain mode the answer is the single exact full-run
// derivation; before that it is one derivation per retained window
// overlapping the query's time range. Returns explain.ParseError /
// explain.EvalError for bad queries, and a plain error when capture is
// disabled or no provenance matched.
func (e *Engine) Explain(queryStr string) ([]WindowDerivation, error) {
	q, err := explain.ParseQuery(queryStr)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	span := e.cfg.Tracer.StartSpan("explain-query", -1)
	if e.cfg.Tracer.Enabled() {
		span.SetDetail(q.String())
	}
	defer span.End()
	e.explainQ++
	if !e.cfg.Explain {
		return nil, fmt.Errorf("stream: provenance capture is disabled (enable with -explain)")
	}
	// Final explainer: immutable profile, exact whole-run answer.
	if e.finalEx != nil {
		d, err := e.finalEx.Explain(q)
		if err != nil {
			return nil, err
		}
		return []WindowDerivation{{
			WindowStartNS: int64(e.finalEx.Prof.Slices.Start),
			WindowEndNS:   int64(e.finalEx.Prof.Slices.End),
			Final:         true,
			Derivation:    d,
		}}, nil
	}
	// Live: answer per retained window, still under e.mu — window profiles
	// reference phases the live tree keeps mutating.
	var out []WindowDerivation
	var lastErr error
	for _, we := range e.winEx {
		if q.HasRange && (q.T1 <= we.W0 || q.T0 >= we.W1) {
			continue
		}
		d, err := we.Ex.Explain(q)
		if err != nil {
			lastErr = err
			continue
		}
		out = append(out, WindowDerivation{
			WindowStartNS: int64(we.W0), WindowEndNS: int64(we.W1), Derivation: d,
		})
	}
	if len(out) == 0 {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("stream: no flushed window holds provenance for this query yet")
	}
	return out, nil
}

// Mem returns the engine's retained-state sizes.
func (e *Engine) Mem() MemStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	buffered := 0
	for _, key := range e.feedOrder {
		f := e.feeds[key]
		buffered += len(f.samples) - f.firstPending
	}
	tree := 0
	e.root.Walk(func(*core.Phase) { tree++ })
	return MemStats{
		OpenPhases:      len(e.open),
		PendingLeaves:   len(e.pending),
		TreePhases:      tree - 1,
		BufferedSamples: buffered,
		RetainedEvents:  len(e.events),
		Windows:         len(e.windows),
	}
}
