package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"grade10/internal/alert"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

// RunStatus is a registered run's lifecycle state.
type RunStatus string

const (
	// StatusQueued: admitted to the backlog, waiting for an active slot.
	StatusQueued RunStatus = "queued"
	// StatusActive: a worker is tailing the run directory into its engine.
	StatusActive RunStatus = "active"
	// StatusDone: finalized; the compact record and blame profile remain,
	// the stream engine has been torn down.
	StatusDone RunStatus = "done"
	// StatusFailed: ingest or finalize errored; Error carries the cause.
	StatusFailed RunStatus = "failed"
	// StatusStalled: run.json never appeared within StallTimeout; torn down.
	StatusStalled RunStatus = "stalled"
)

// Config tunes the fleet manager.
type Config struct {
	// MaxActive / QueueDepth bound admission (see SchedulerConfig).
	MaxActive  int
	QueueDepth int
	// StallTimeout tears an active run down if its metadata (run.json) has
	// not appeared that long after admission; 0 disables.
	StallTimeout time.Duration
	// Stale marks the fleet's health degraded while an active run's last
	// ingest is older than this (stream.Engine.Stale); 0 disables.
	Stale time.Duration
	// Poll and Idle are per-run tailing knobs (rundir.FollowOptions).
	Poll time.Duration
	Idle time.Duration
	// Timeslice, WindowSlices, MaxWindows and Parallelism size each per-run
	// stream engine (see engineConfig).
	Timeslice    vtime.Duration
	WindowSlices int
	MaxWindows   int
	Parallelism  int
	// Explain enables per-run attribution provenance capture.
	Explain bool
	// Archive, when set, receives every finalized run's record. Runs
	// finalize concurrently, so it must be safe for concurrent use, as
	// profstore.Store is.
	Archive profstore.Archive
	// Alerts, when set, is evaluated on every window flush of every run
	// (threshold rules; streaks count windows across all concurrently
	// ingesting runs) and against every finalized run's record, after
	// archiving: baseline-regression rules compare the fresh record to the
	// archive-learned statistics, and a later clean run resolves what a noisy
	// one fired. The evaluator is internally synchronized.
	Alerts *alert.Evaluator
	// OnAlert, when set, receives the transitions each evaluation produced
	// (only called when there are any). Window evaluations call it under the
	// run's engine lock, like stream.Config.OnAlert: hand the events to a
	// non-blocking sink and return.
	OnAlert func([]alert.Event)
	// Now is the wall clock; injectable for tests.
	Now func() time.Time
	// Logger receives per-run lifecycle diagnostics; default discards.
	Logger *slog.Logger
	// OnWindowFlush, when set, receives every run's flushed windows tagged
	// with the run name (and a nil result when a run finalizes). Like
	// stream.Config.OnWindowFlush it runs under that run's engine lock: hand
	// the result to a non-blocking sink and return. The flight recorder's
	// window ring feeds from here.
	OnWindowFlush func(run string, wr *stream.WindowResult)
	// OnIncident, when set, is notified of fleet-level incidents — the stall
	// watchdog tearing a run down ("stall") or the admission scheduler
	// shedding a registration ("shed") — off the fleet lock. cmd wiring
	// points this at the flight bundle capturer; the fleet itself carries no
	// flight dependency.
	OnIncident func(kind, detail, run string)
}

func (c *Config) fill() {
	if c.WindowSlices <= 0 {
		c.WindowSlices = 64
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// runState is everything the fleet holds about one registered run. While
// active it owns a stream engine; after teardown only the compact artifacts
// (record, bottleneck fold, blame profile) remain, bounding fleet memory by
// the active cap rather than the registration count.
type runState struct {
	name string
	src  Source
	// keep retains the engine after finalize (RegisterAlias).
	keep bool

	status     RunStatus
	err        string
	registered time.Time

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	info    rundir.Info
	infoSet bool

	engine      *stream.Engine
	account     *obs.RunAccount // survives engine teardown: finished runs still report overhead
	bottlenecks []stream.BottleneckSummary
	archiveID   string
	makespanNS  int64
	blame       *BlameProfile
}

func (rs *runState) requestStop() { rs.stopOnce.Do(func() { close(rs.stop) }) }

// Fleet is the multi-run characterization service: a bounded set of
// concurrent per-run stream engines behind the admission scheduler, feeding
// one shared archive and the cross-job blame join.
type Fleet struct {
	cfg   Config
	sched *Scheduler

	mu    sync.Mutex
	runs  map[string]*runState
	order []string // registration order, for stable /fleet/runs listings

	wg     sync.WaitGroup
	closed bool
}

// New returns an empty fleet.
func New(cfg Config) *Fleet {
	cfg.fill()
	return &Fleet{
		cfg: cfg,
		sched: NewScheduler(SchedulerConfig{
			MaxActive: cfg.MaxActive, QueueDepth: cfg.QueueDepth, Now: cfg.Now,
		}),
		runs: map[string]*runState{},
	}
}

// Counts reports admission state: active runs, queued runs, lifetime sheds.
func (f *Fleet) Counts() (active, queued int, shed int64) { return f.sched.Counts() }

// Feed delivers one run's input into sink — the run metadata once known,
// then log bytes or events and monitoring rows — and returns when the input
// is complete or stop closes. It runs on the run's worker goroutine.
type Feed func(stop <-chan struct{}, sink *Sink) error

// Source is one run for the fleet to characterize.
type Source struct {
	// Dir is the run directory; its base name names the run. Unless Feed is
	// set, the fleet tails it with rundir.Follow (Config.Poll and Idle).
	Dir string
	// Feed, when set, delivers the run in-process instead of tailing Dir.
	Feed Feed
	// Label is recorded with the run's archived record.
	Label string
	// Tracer, when set, self-traces the run's engine.
	Tracer *obs.Tracer
}

// Register admits one run directory (from a watch directory or POST
// /fleet/runs) under its base name, archived with the label "fleet:"+name;
// its engine is released when it finishes. The returned decision says
// whether ingest started immediately, was queued, or was shed (at which
// point the fleet retains nothing and the caller may retry later).
func (f *Fleet) Register(dir string) (name string, d Decision, err error) {
	return f.register(Source{Dir: dir, Label: "fleet:" + RunName(dir)}, false)
}

// RunName is the name the fleet gives the run in dir: its base name.
func RunName(dir string) string { return filepath.Base(filepath.Clean(dir)) }

// RegisterAlias admits the only run of a fleet of one (serve -run, runsim
// -serve). Unlike a watch-directory run it keeps its engine after finalize,
// so the single-run endpoints go on answering from it.
func (f *Fleet) RegisterAlias(src Source) (name string, d Decision, err error) {
	return f.register(src, true)
}

func (f *Fleet) register(src Source, keep bool) (name string, d Decision, err error) {
	dir := src.Dir
	name = RunName(dir)
	if name == "" || name == "." || name == string(filepath.Separator) {
		return "", DecisionShed, fmt.Errorf("fleet: cannot derive a run name from %q", dir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", DecisionShed, fmt.Errorf("fleet: shut down")
	}
	if _, dup := f.runs[name]; dup {
		return "", DecisionShed, fmt.Errorf("fleet: run %q is already registered", name)
	}
	d, err = f.sched.Admit(name)
	if err != nil {
		return "", DecisionShed, err
	}
	if d == DecisionShed {
		if f.cfg.OnIncident != nil {
			// Notify off the fleet lock; the shed itself is already settled.
			go f.cfg.OnIncident("shed", fmt.Sprintf("admission shed for %s", dir), name)
		}
		return name, d, nil // load-shed: counted by the scheduler, not retained
	}
	rs := &runState{
		name: name, src: src, keep: keep, registered: f.cfg.Now(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	f.runs[name] = rs
	f.order = append(f.order, name)
	if d == DecisionActive {
		f.startLocked(rs)
	} else {
		rs.status = StatusQueued
	}
	return name, d, nil
}

// Done returns a channel closed once the named run has finished (or nil
// for an unknown run).
func (f *Fleet) Done(name string) <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rs, ok := f.runs[name]; ok {
		return rs.done
	}
	return nil
}

// startLocked transitions a run to active and launches its worker.
// Caller holds f.mu.
func (f *Fleet) startLocked(rs *runState) {
	rs.status = StatusActive
	f.wg.Add(1)
	go f.runWorker(rs)
	if f.cfg.StallTimeout > 0 {
		go f.stallWatch(rs)
	}
}

// stallWatch tears the run down if run.json has not appeared StallTimeout
// after admission. Once metadata exists the per-run Idle timeout owns
// completion, so the watchdog stands down.
func (f *Fleet) stallWatch(rs *runState) {
	t := time.NewTimer(f.cfg.StallTimeout)
	defer t.Stop()
	select {
	case <-rs.done:
	case <-t.C:
		f.mu.Lock()
		stalled := rs.status == StatusActive && !rs.infoSet
		if stalled {
			rs.status = StatusStalled
			rs.err = fmt.Sprintf("no run metadata within %s", f.cfg.StallTimeout)
		}
		f.mu.Unlock()
		if stalled {
			f.cfg.Logger.Warn("fleet run stalled", "run", rs.name, "dir", rs.src.Dir)
			if f.cfg.OnIncident != nil {
				f.cfg.OnIncident("stall", rs.err, rs.name)
			}
			rs.requestStop()
		}
	}
}

// runWorker takes one run from its source to completion: buffer until the
// run metadata reveals the models, stream, then finalize, archive, build
// the blame profile, and tear the engine down.
func (f *Fleet) runWorker(rs *runState) {
	defer f.wg.Done()
	defer close(rs.done)

	sink := &Sink{f: f, rs: rs}
	feed := rs.src.Feed
	if feed == nil {
		dir := rs.src.Dir
		feed = func(stop <-chan struct{}, sink *Sink) error {
			return rundir.Follow(dir, rundir.FollowOptions{Poll: f.cfg.Poll, Idle: f.cfg.Idle}, stop,
				rundir.FollowSink{Info: sink.Info, LogChunk: sink.LogChunk, MonitoringRow: sink.Row})
		}
	}
	err := feed(rs.stop, sink)
	if err == nil {
		err = sink.err
	}
	f.finishRun(rs, sink.engine, err)

	// Free the slot and start whatever the scheduler promotes.
	promoted := f.sched.Release(rs.name)
	f.mu.Lock()
	for _, name := range promoted {
		if next, ok := f.runs[name]; ok && next.status == StatusQueued {
			f.startLocked(next)
		}
	}
	f.mu.Unlock()
}

// Sink takes one run's input from its Feed. Until the run metadata arrives
// (Info), log bytes and monitoring rows buffer; Info builds the engine and
// replays them. The engine stays local to the run's worker, so ingest takes
// no fleet lock.
type Sink struct {
	f      *Fleet
	rs     *runState
	engine *stream.Engine
	err    error

	pendingLog  []byte
	pendingRows []rundir.MonitoringRow
}

// Info delivers the run metadata; only the first call counts.
func (s *Sink) Info(info rundir.Info) {
	if s.engine != nil || s.err != nil {
		return
	}
	acct := &obs.RunAccount{}
	cfg, err := s.f.engineConfig(s.rs.name, info, s.rs.src.Tracer, acct)
	if err == nil {
		s.engine, err = stream.New(cfg)
	}
	if err != nil {
		s.err = err
		s.rs.requestStop()
		return
	}
	e := s.engine
	if len(s.pendingLog) > 0 {
		e.IngestChunk(s.pendingLog)
	}
	for _, row := range s.pendingRows {
		e.IngestRow(row)
	}
	s.pendingLog, s.pendingRows = nil, nil
	s.f.mu.Lock()
	s.rs.info, s.rs.infoSet, s.rs.engine, s.rs.account = info, true, e, acct
	s.f.mu.Unlock()
	s.f.cfg.Logger.Info("fleet run ingesting",
		"run", s.rs.name, "engine", info.Engine, "job", info.Job, "workers", info.Workers)
}

// LogChunk delivers raw execution-log bytes in either enginelog format.
func (s *Sink) LogChunk(chunk []byte) {
	if s.engine != nil {
		s.engine.IngestChunk(chunk)
	} else {
		s.pendingLog = append(s.pendingLog, chunk...)
	}
}

// Event delivers one decoded log event. Only in-process feeds send events;
// they know the run metadata up front and call Info first. Events after a
// failed Info are dropped: the run is already stopping.
func (s *Sink) Event(ev enginelog.Event) {
	if s.engine != nil {
		s.engine.IngestEvent(ev)
	}
}

// Row delivers one monitoring sample.
func (s *Sink) Row(row rundir.MonitoringRow) {
	if s.engine != nil {
		s.engine.IngestRow(row)
	} else {
		s.pendingRows = append(s.pendingRows, row)
	}
}

// finishRun finalizes the engine, archives the record, evaluates alerts,
// builds the blame profile, and tears the engine down (unless the run is
// kept), settling the run's terminal status.
func (f *Fleet) finishRun(rs *runState, engine *stream.Engine, followErr error) {
	fail := func(err error) {
		f.mu.Lock()
		if !rs.keep {
			rs.engine = nil
		}
		if rs.status != StatusStalled {
			rs.status = StatusFailed
			rs.err = err.Error()
		}
		f.mu.Unlock()
		f.cfg.Logger.Warn("fleet run failed", "run", rs.name, "err", err)
	}
	if followErr != nil {
		fail(followErr)
		return
	}
	if engine == nil {
		f.mu.Lock()
		stalled := rs.status == StatusStalled
		f.mu.Unlock()
		if stalled {
			return // watchdog already settled the status
		}
		fail(fmt.Errorf("stopped before run metadata appeared in %s", rs.src.Dir))
		return
	}

	out, err := engine.Finalize()
	if err != nil {
		fail(err)
		return
	}
	snap := engine.Snapshot()
	rec := profstore.BuildRecord(rs.info, out)
	rec.Label = rs.src.Label
	var archiveID string
	if f.cfg.Archive != nil {
		meta, evicted, err := f.cfg.Archive.Put(rec)
		if err != nil {
			fail(fmt.Errorf("archiving: %w", err))
			return
		}
		archiveID = meta.ID
		if len(evicted) > 0 {
			f.cfg.Logger.Info("fleet archive evicted runs", "count", len(evicted))
		}
	}
	if f.cfg.Alerts != nil {
		if evs := f.cfg.Alerts.EvalRecord(rec, rs.name); len(evs) > 0 {
			for _, ev := range evs {
				f.cfg.Logger.Info("fleet alert transition", "run", rs.name,
					"rule", ev.Rule, "from", ev.From, "to", ev.To)
			}
			if f.cfg.OnAlert != nil {
				f.cfg.OnAlert(evs)
			}
		}
	}
	blame := BuildBlameProfile(rs.name, rs.info, out, grade10.DefaultTimeslice)
	makespan := int64(out.Trace.End.Sub(out.Trace.Start))

	f.mu.Lock()
	if !rs.keep {
		rs.engine = nil // teardown: the windows, provenance and raw inputs go
	}
	rs.status = StatusDone
	rs.bottlenecks = snap.Bottlenecks
	rs.makespanNS = makespan
	rs.archiveID = archiveID
	rs.blame = blame
	f.mu.Unlock()
	st := snap.Stats
	f.cfg.Logger.Info("fleet run done", "run", rs.name,
		"makespan", vtime.Duration(makespan).String(), "archived", archiveID != "",
		"events", st.Events, "skipped_lines", st.ParseErrors,
		"samples", st.Samples, "windows", st.WindowsFlushed)
}

// engineConfig turns a run's metadata into its live stream.Config — the
// one engine builder behind every service mode: models from the same entry
// point as the batch CLI, the expected instance count from workers ×
// monitored resources, the exact finalize the archive and blame need, the
// fleet's sizing, and its alert and window-flush hooks. Every engine
// carries a per-run overhead account so /fleet/runs and /debug/overhead can
// report what characterizing the run cost.
func (f *Fleet) engineConfig(name string, info rundir.Info, tracer *obs.Tracer, acct *obs.RunAccount) (stream.Config, error) {
	models, err := grade10.ModelsForEngine(info.Engine, grade10.ModelParams{
		Job:              info.Job,
		Cores:            info.Cores,
		NetBandwidth:     info.NetBandwidth,
		DiskBandwidth:    info.DiskBandwidth,
		ThreadsPerWorker: info.ThreadsPerWorker,
	})
	if err != nil {
		return stream.Config{}, err
	}
	resources := 3 // cpu, net-in, net-out
	if info.DiskBandwidth > 0 {
		resources++
	}
	cfg := stream.Config{
		Models:            models,
		Timeslice:         f.cfg.Timeslice,
		WindowSlices:      f.cfg.WindowSlices,
		MaxWindows:        f.cfg.MaxWindows,
		ExpectedInstances: info.Workers * resources,
		RetainForFinal:    true,
		Parallelism:       f.cfg.Parallelism,
		Tracer:            tracer,
		Explain:           f.cfg.Explain,
		Alerts:            f.cfg.Alerts,
		OnAlert:           f.cfg.OnAlert,
		Account:           acct,
	}
	if hook := f.cfg.OnWindowFlush; hook != nil {
		cfg.OnWindowFlush = func(wr *stream.WindowResult) { hook(name, wr) }
	}
	return cfg, nil
}

// Watch polls watchDir for new subdirectories and registers each exactly
// once (shed directories included — re-registering on every poll would melt
// the shed counter; the operator can POST /fleet/runs to retry). It returns
// when stop closes.
func (f *Fleet) Watch(watchDir string, stop <-chan struct{}) error {
	poll := f.cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	seen := map[string]bool{}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		entries, err := os.ReadDir(watchDir)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if seen[n] {
				continue
			}
			seen[n] = true
			name, d, err := f.Register(filepath.Join(watchDir, n))
			if err != nil {
				f.cfg.Logger.Warn("fleet watch: register failed", "dir", n, "err", err)
				continue
			}
			f.cfg.Logger.Info("fleet watch: discovered run", "run", name, "decision", d.String())
		}
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
	}
}

// Shutdown requests every run to stop and drains the workers — in-flight
// window flushes and finalizes complete (each terminal run still archives)
// — until ctx expires.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	states := make([]*runState, 0, len(f.runs))
	for _, rs := range f.runs {
		states = append(states, rs)
	}
	f.mu.Unlock()
	for _, rs := range states {
		rs.requestStop()
	}
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: shutdown timed out with runs still draining: %w", ctx.Err())
	}
}

// RunView is one run's row in /fleet/runs.
type RunView struct {
	Name       string    `json:"name"`
	Dir        string    `json:"dir"`
	Status     RunStatus `json:"status"`
	Error      string    `json:"error,omitempty"`
	Engine     string    `json:"engine,omitempty"`
	Job        string    `json:"job,omitempty"`
	Workers    int       `json:"workers,omitempty"`
	ArchiveID  string    `json:"archive_id,omitempty"`
	MakespanNS int64     `json:"makespan_ns,omitempty"`
	// StalenessSeconds is wall-clock time since the run last ingested
	// anything; only meaningful while active.
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
	// Overhead is the framework's own accrued cost of characterizing this
	// run; present once ingest has started (it survives engine teardown).
	Overhead *obs.OverheadSnapshot `json:"overhead,omitempty"`
}

// FleetSnapshot is the /fleet/runs payload.
type FleetSnapshot struct {
	Active    int       `json:"active"`
	Queued    int       `json:"queued"`
	ShedTotal int64     `json:"shed_total"`
	Runs      []RunView `json:"runs"`
}

// Snapshot lists every retained run in registration order plus the
// admission counters.
func (f *Fleet) Snapshot() FleetSnapshot {
	active, queued, shed := f.sched.Counts()
	snap := FleetSnapshot{Active: active, Queued: queued, ShedTotal: shed}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.order {
		rs := f.runs[name]
		v := RunView{
			Name: rs.name, Dir: rs.src.Dir, Status: rs.status, Error: rs.err,
			ArchiveID: rs.archiveID, MakespanNS: rs.makespanNS,
		}
		if rs.infoSet {
			v.Engine, v.Job, v.Workers = rs.info.Engine, rs.info.Job, rs.info.Workers
		}
		if rs.engine != nil {
			if age, finalized := rs.engine.IngestAge(); !finalized {
				v.StalenessSeconds = age.Seconds()
			}
		}
		if rs.account != nil {
			o := rs.account.Snapshot()
			v.Overhead = &o
		}
		snap.Runs = append(snap.Runs, v)
	}
	return snap
}

// EngineFor returns the live stream engine and run metadata for an actively
// ingesting run, or ok=false when the run is unknown or already torn down
// (engines are released when a run finishes — finished runs live on only as
// archive records). The UI's per-run view models draw from this.
func (f *Fleet) EngineFor(name string) (*stream.Engine, rundir.Info, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rs, ok := f.runs[name]
	if !ok || rs.engine == nil {
		return nil, rundir.Info{}, false
	}
	return rs.engine, rs.info, true
}

// Staleness reports per-run ingest age (seconds) for runs that are actively
// ingesting — the source for the per-run staleness gauges.
func (f *Fleet) Staleness() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]float64{}
	for _, rs := range f.runs {
		if rs.engine == nil {
			continue
		}
		if age, finalized := rs.engine.IngestAge(); !finalized {
			out[rs.name] = age.Seconds()
		}
	}
	return out
}

// Overhead reports every run's accrued framework cost, most expensive (by
// wall time) first — the /debug/overhead payload and the UI overhead panel's
// source. Runs whose ingest never started are omitted.
func (f *Fleet) Overhead() []obs.RunOverhead {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []obs.RunOverhead
	for _, name := range f.order {
		rs := f.runs[name]
		if rs.account == nil {
			continue
		}
		out = append(out, obs.RunOverhead{Run: name, OverheadSnapshot: rs.account.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallSeconds != out[j].WallSeconds {
			return out[i].WallSeconds > out[j].WallSeconds
		}
		return out[i].Run < out[j].Run
	})
	return out
}

// FleetBottleneck tags one bottleneck aggregate with the run it came from.
type FleetBottleneck struct {
	Run      string  `json:"run"`
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
	Phases   int     `json:"phases"`
	Windows  int     `json:"windows"`
}

// Bottlenecks ranks bottlenecks across every run — live engine folds for
// active runs, the retained fold for finished ones — by blocked/contended
// seconds, returning the top k (k<=0 means all).
func (f *Fleet) Bottlenecks(k int) []FleetBottleneck {
	f.mu.Lock()
	var all []FleetBottleneck
	for _, name := range f.order {
		rs := f.runs[name]
		rows := rs.bottlenecks
		if rs.engine != nil {
			rows = rs.engine.Snapshot().Bottlenecks
		}
		for _, b := range rows {
			all = append(all, FleetBottleneck{
				Run: rs.name, TypePath: b.TypePath, Resource: b.Resource,
				Kind: b.Kind, Seconds: b.Seconds, Phases: b.Phases, Windows: b.Windows,
			})
		}
	}
	f.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Regression is one cross-run diff verdict for /fleet/regressions.
type Regression struct {
	Engine  string `json:"engine"`
	Job     string `json:"job"`
	Workers int    `json:"workers"`
	BaseID  string `json:"base_id"`
	NewID   string `json:"new_id"`
	Verdict string `json:"verdict"`
	// MakespanRelChange is (new-base)/base; positive is slower.
	MakespanRelChange float64 `json:"makespan_rel_change"`
	BaseMakespanNS    int64   `json:"base_makespan_ns"`
	NewMakespanNS     int64   `json:"new_makespan_ns"`
}

// Regressions diffs consecutive archived runs of the same (engine, job,
// workers) configuration and ranks the verdicts by |relative makespan
// change|, returning the top k (k<=0 means all). Corrupt records are
// skipped (counted by the archive's CorruptRecords), not fatal, as are runs
// evicted between the listing and the load.
func (f *Fleet) Regressions(k int) ([]Regression, error) {
	if f.cfg.Archive == nil {
		return nil, fmt.Errorf("fleet: no archive configured")
	}
	metas := f.cfg.Archive.List()
	type key struct {
		engine, job string
		workers     int
	}
	groups := map[key][]profstore.Meta{}
	var order []key
	for _, m := range metas { // List is Seq-ascending already
		kk := key{m.Engine, m.Job, m.Workers}
		if _, ok := groups[kk]; !ok {
			order = append(order, kk)
		}
		groups[kk] = append(groups[kk], m)
	}
	var out []Regression
	for _, kk := range order {
		ms := groups[kk]
		for i := 1; i < len(ms); i++ {
			base, err := f.cfg.Archive.Get(ms[i-1].ID)
			if err != nil {
				continue // corrupt or evicted: skip the pair
			}
			next, err := f.cfg.Archive.Get(ms[i].ID)
			if err != nil {
				continue
			}
			rep, err := profdiff.Diff(base, next, profdiff.Config{})
			if err != nil {
				continue
			}
			out = append(out, Regression{
				Engine: kk.engine, Job: kk.job, Workers: kk.workers,
				BaseID: base.ID, NewID: next.ID,
				Verdict:           string(rep.Verdict),
				MakespanRelChange: rep.MakespanRelChange,
				BaseMakespanNS:    base.MakespanNS,
				NewMakespanNS:     next.MakespanNS,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs(out[i].MakespanRelChange), abs(out[j].MakespanRelChange)
		if ai != aj {
			return ai > aj
		}
		if out[i].NewID != out[j].NewID {
			return out[i].NewID < out[j].NewID
		}
		return out[i].BaseID < out[j].BaseID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Blame joins the target's demand against every other finished run's and
// returns the cross-job blame report. Only runs that finalized (StatusDone)
// participate — an in-flight neighbor has no settled demand timeline yet.
func (f *Fleet) Blame(target string) (*BlameReport, error) {
	f.mu.Lock()
	var profiles []*BlameProfile
	for _, name := range f.order {
		rs := f.runs[name]
		if rs.status == StatusDone && rs.blame != nil {
			profiles = append(profiles, rs.blame)
		}
	}
	f.mu.Unlock()
	return Blame(profiles, target, BlameConfig{
		SliceWidth:  grade10.DefaultTimeslice,
		Parallelism: f.cfg.Parallelism,
	})
}
