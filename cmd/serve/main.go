// Command serve is the live characterization service: it tails a run
// directory while cmd/runsim (or any engine) is still writing it, feeds the
// execution log and monitoring through the streaming engine, and serves the
// evolving performance profile over HTTP — JSON endpoints for dashboards,
// Prometheus text metrics for scraping, the self-trace as a Perfetto-loadable
// Chrome trace-event file, and, once the run completes, the exact final
// report (byte-identical to cmd/grade10 on the same directory).
//
// Usage:
//
//	serve -run run/ -addr :7070
//	open  localhost:7070/ui/         # embedded visual profiler (heatmap,
//	                                 # timeline, comms matrix, click-through
//	                                 # explain; live SSE on /api/events)
//	curl localhost:7070/profile      # live profile (JSON)
//	curl localhost:7070/metrics      # Prometheus text format
//	curl localhost:7070/trace        # Chrome trace-event JSON (Perfetto)
//	curl localhost:7070/report       # final report (503 until the run ends)
//	curl localhost:7070/explain      # -explain: provenance query ?q=...
//	curl localhost:7070/healthz      # 503 + reason when ingest goes stale
//	curl localhost:7070/alerts       # -alert-rules: rules + firing/pending/resolved (JSON)
//
// The service is robust to producers in progress: files that do not exist
// yet, partially written lines, and garbled log content are handled by
// waiting, buffering, and counting respectively. With -stale, /healthz
// reports degraded (HTTP 503) when no input has arrived for the given
// wall-clock duration while the run is still open.
//
// Fleet mode (-fleet, mutually exclusive with -run) serves many runs at
// once: a watch directory is polled for new run subdirectories, each is
// admitted through a bounded scheduler (-fleet-active concurrent engines,
// -fleet-queue backlog, everything beyond that shed and counted), and the
// cross-run endpoints come up instead of the single-run ones:
//
//	serve -fleet runs/ -addr :7070 -store archive/ -store-shards 4
//	curl localhost:7070/fleet/runs          # every run + admission counters
//	curl -X POST -d '{"dir":"runs/x"}' localhost:7070/fleet/runs
//	curl localhost:7070/fleet/bottlenecks   # top-K across all runs
//	curl localhost:7070/fleet/regressions   # top-K archive diff verdicts
//	curl 'localhost:7070/fleet/blame?run=a' # cross-job blame split
//	curl 'localhost:7070/diff?a=ID&b=ID'    # archived-run diff (JSON or ?format=text)
//	open  localhost:7070/ui/                # visual profiler with run picker + diff view
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"path/filepath"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/flight"
	"grade10/internal/grade10"
	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/stream"
	"grade10/internal/ui"
	"grade10/internal/vtime"
)

var logger *slog.Logger

func main() {
	var (
		runDir      = flag.String("run", "", "run directory to tail (required)")
		addr        = flag.String("addr", ":7070", "HTTP listen address")
		poll        = flag.Duration("poll", 100*time.Millisecond, "file polling interval")
		idle        = flag.Duration("idle", time.Second, "idle time after which the run counts as complete")
		timeslice   = flag.Duration("timeslice", 0, "analysis timeslice (virtual; default 10ms)")
		window      = flag.Int("window", 64, "timeslices per live analysis window")
		maxWin      = flag.Int("max-windows", 32, "recent windows retained for /windows")
		bounded     = flag.Bool("bounded", false, "strictly bounded memory: drop raw inputs, /report serves no exact text")
		parallel    = flag.Int("parallelism", 0, "analysis worker count (0 = GOMAXPROCS); results are identical for every value")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		uiOn        = flag.Bool("ui", true, "serve the embedded visual profiler under /ui/ (view models under /api/, live updates over SSE on /api/events)")
		explainOn   = flag.Bool("explain", false, "capture attribution provenance and serve /explain queries")
		stale       = flag.Duration("stale", 0, "report /healthz degraded (503) when the last ingested input is older than this (0 disables)")
		storeDir    = flag.String("store", "", "profile archive directory: serve /runs and /diff, and archive this run once finalized")
		storeMax    = flag.Int("store-max", 0, "archive retention: keep at most this many runs per shard, evicting oldest first (0 = unbounded)")
		storeShards = flag.Int("store-shards", 0, "shard count of a newly created archive, split by run-ID prefix (0 = 1); an existing archive keeps the count it was created with")
		runLabel    = flag.String("run-label", "", "free-form label recorded with the archived run")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel    = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")

		alertRules   = flag.String("alert-rules", "", "alert rules file: threshold rules fire on every window flush, baseline-regression rules on finalized runs (vs the -store archive); serves /alerts")
		alertWebhook = flag.String("alert-webhook", "", "POST each batch of alert lifecycle transitions to this URL as JSON, with retry/backoff (needs -alert-rules)")

		bundleDir    = flag.String("bundle-dir", "", "flight recorder: write triggered diagnostics bundles (pprof, self-trace, log ring, window and alert snapshots) under this directory; empty disables bundle capture (the in-memory rings stay on)")
		bundleMax    = flag.Int("bundle-max", 16, "flight recorder: retain at most this many bundles, evicting oldest first")
		bundleMinGap = flag.Duration("bundle-min-interval", time.Minute, "flight recorder: minimum interval between bundles of the same trigger kind")
		bundleCPU    = flag.Duration("bundle-cpu-profile", 250*time.Millisecond, "flight recorder: CPU-profile sampling duration per bundle (negative disables the CPU profile)")

		fleetDir     = flag.String("fleet", "", "fleet mode: watch this directory for run subdirectories and characterize them all (mutually exclusive with -run)")
		fleetActive  = flag.Int("fleet-active", 8, "fleet mode: max concurrently ingesting runs")
		fleetQueue   = flag.Int("fleet-queue", 64, "fleet mode: admission backlog depth; registrations beyond active+queue are shed")
		stallTimeout = flag.Duration("stall-timeout", 0, "fleet mode: tear a run down if run.json has not appeared this long after admission (0 disables)")
		shutdownTO   = flag.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown budget: drain in-flight window flushes/finalizes and HTTP before exiting")
	)
	flag.Parse()
	var err error
	// Every log record tees into the flight recorder's bounded ring (down to
	// debug, regardless of -log-level) so /logs and bundle captures carry
	// recent history.
	logRing := obs.NewLogRing(0)
	logger, err = obs.NewLoggerWithRing(os.Stderr, "serve", *logFormat, *logLevel, logRing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if (*runDir == "") == (*fleetDir == "") {
		logger.Error("exactly one of -run (single run) or -fleet (watch directory) is required")
		os.Exit(2)
	}
	// Alert rules parse before anything expensive so a typo fails fast with
	// the rule text and position; the webhook notifier is shared by both
	// modes and drains its queue on shutdown.
	var rules []alert.Rule
	if *alertRules != "" {
		rules, err = loadAlertRules(*alertRules)
		if err != nil {
			logger.Error(err.Error())
			os.Exit(2)
		}
	}
	if *alertWebhook != "" && len(rules) == 0 {
		logger.Error("-alert-webhook needs -alert-rules")
		os.Exit(2)
	}
	var notifier *alert.Notifier
	if *alertWebhook != "" {
		notifier = alert.NewNotifier(*alertWebhook, alert.NotifierOptions{Logger: logger})
	}
	storeOpts := profstore.Options{Shards: *storeShards, MaxRunsPerShard: *storeMax}
	if *fleetDir != "" {
		runFleet(*fleetDir, *addr, fleetOptions{
			active: *fleetActive, queue: *fleetQueue, stall: *stallTimeout,
			poll: *poll, idle: *idle, timeslice: *timeslice,
			window: *window, maxWin: *maxWin, parallel: *parallel,
			explain: *explainOn, storeDir: *storeDir, store: storeOpts,
			shutdownTO: *shutdownTO, ui: *uiOn,
			alertRules: rules, notifier: notifier,
			logRing: logRing, bundleDir: *bundleDir, bundleMax: *bundleMax,
			bundleMinGap: *bundleMinGap, bundleCPU: *bundleCPU,
		})
		return
	}

	// The handler swaps from "warming up" to the live server once run.json
	// reveals which engine's models to build. atomic.Pointer keeps the swap
	// type-safe across the two concrete handler types.
	var handler atomic.Pointer[http.Handler]
	warming := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "waiting for run metadata (run.json)", http.StatusServiceUnavailable)
	}))
	handler.Store(&warming)
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		})}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()
	logger.Info(fmt.Sprintf("listening on %s, tailing %s", *addr, *runDir))

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		close(stop)
	}()

	// Until the engine exists, log bytes and monitoring rows buffer; run.json
	// may legitimately appear after data starts landing. Log bytes are tailed
	// raw (not line-split) so both enginelog formats stream transparently.
	var (
		engine        *stream.Engine
		pendingLog    []byte
		pendingRows   []rundir.MonitoringRow
		liveSrv       *stream.Server
		runInfo       rundir.Info
		alertEv       *alert.Evaluator
		publishAlerts func([]alert.Event)
		recorder      *flight.Recorder
		capt          *flight.Capturer
	)
	// Per-run overhead accounting: what characterizing this run costs the
	// framework itself. Diagnostics only — never feeds analysis output.
	runName := filepath.Base(filepath.Clean(*runDir))
	account := &obs.RunAccount{}
	overheadFn := func() []obs.RunOverhead {
		return []obs.RunOverhead{{Run: runName, OverheadSnapshot: account.Snapshot()}}
	}
	// The SSE broker exists before the engine: buildEngine wires its
	// OnWindowFlush hook into the stream config so every flushed window
	// becomes one `event: window` frame on /api/events.
	var broker *ui.Broker
	if *uiOn {
		broker = ui.NewBroker(0)
	}
	sink := rundir.FollowSink{
		Info: func(info rundir.Info) {
			runInfo = info
			tracer := obs.NewTracer()
			recorder = flight.NewRecorder(tracer, logRing)
			// The archive opens before the engine so baseline-regression
			// rules can learn per-cell robust stats from prior runs of the
			// same job — before this run's own record is archived.
			var store profstore.Archive
			if *storeDir != "" {
				st, err := profstore.Open(*storeDir, storeOpts)
				if err != nil {
					fail(err)
				}
				store = st
			}
			if len(rules) > 0 {
				var base *alert.Baselines
				if store != nil {
					base = alert.LearnArchive(store)
					logger.Info("learned alert baselines",
						"runs", base.Runs(), "cells", base.Len())
				}
				alertEv = alert.NewEvaluator(rules, base, alert.Config{})
			}
			capt = newCapturer(*bundleDir, *bundleMax, *bundleMinGap, *bundleCPU, recorder, alertEv, overheadFn)
			watchSIGQUIT(capt)
			if alertEv != nil {
				publishAlerts = func(evs []alert.Event) {
					recorder.OnAlerts(evs)
					onFiring(capt, evs, runName)
					if broker != nil {
						broker.PublishAlerts(evs)
					}
					if notifier != nil {
						notifier.Notify(evs)
					}
				}
			}
			onFlush := func(wr *stream.WindowResult) {
				if broker != nil {
					broker.OnWindowFlush(wr)
				}
				recorder.OnWindowFlush(runName, wr)
			}
			e, err := buildEngine(info, *timeslice, *window, *maxWin, *bounded, *parallel, *explainOn, tracer, onFlush, alertEv, publishAlerts, account)
			if err != nil {
				fail(err)
			}
			engine = e
			if len(pendingLog) > 0 {
				engine.IngestChunk(pendingLog)
			}
			for _, row := range pendingRows {
				engine.IngestRow(row)
			}
			pendingLog, pendingRows = nil, nil
			srv := stream.NewServer(engine)
			if *pprofOn {
				srv.EnablePprof()
			}
			srv.SetStaleThreshold(*stale)
			if store != nil {
				srv.SetStore(store, profdiff.Config{})
			}
			srv.Handle("/logs", "recent log records from the flight recorder's ring (?level=&limit=)",
				flight.LogsHandler(logRing))
			srv.Handle("/debug/overhead", "framework overhead accounting for this run (JSON)",
				flight.OverheadHandler(overheadFn))
			if capt != nil {
				bh := flight.BundlesHandler(capt)
				srv.Handle("/debug/bundle", "POST: capture a diagnostics bundle now (?detail=)",
					flight.TriggerHandler(capt))
				srv.Handle("/debug/bundles", "captured diagnostics bundles (JSON)", bh)
				srv.Handle("/debug/bundles/", "fetch one diagnostics bundle as a tar stream", bh)
			}
			// The registry feeds /metrics with the tracer bridge (per-stage
			// histograms), Go runtime gauges, and the engine's staleness and
			// parser-health gauges.
			reg := obs.NewRegistry()
			obs.RegisterRuntime(reg)
			obs.BridgeTracer(reg, tracer)
			srv.RegisterEngineMetrics(reg)
			srv.RegisterStoreMetrics(reg)
			recorder.RegisterMetrics(reg)
			capt.RegisterMetrics(reg)
			flight.RegisterOverheadMetrics(reg, overheadFn)
			if alertEv != nil {
				srv.SetAlerts(alertEv, alert.RegisterMetrics(reg, alertEv))
			}
			if broker != nil {
				broker.RegisterMetrics(reg)
				uis := ui.NewServer(ui.Config{Engine: engine, Broker: broker, Alerts: alertEv, Overhead: overheadFn})
				srv.MountUI(uis, uis.Routes())
			}
			srv.SetRegistry(reg)
			liveSrv = srv
			live := http.Handler(srv)
			handler.Store(&live)
			if capt != nil {
				capt.WatchHealth(stop, 0, srv.Degraded)
			}
			logger.Info(fmt.Sprintf("%s run of %q on %d workers; live endpoints up",
				info.Engine, info.Job, info.Workers))
		},
		LogChunk: func(chunk []byte) {
			if engine != nil {
				engine.IngestChunk(chunk)
			} else {
				pendingLog = append(pendingLog, chunk...)
			}
		},
		MonitoringRow: func(row rundir.MonitoringRow) {
			if engine != nil {
				engine.IngestRow(row)
			} else {
				pendingRows = append(pendingRows, row)
			}
		},
	}
	if err := rundir.Follow(*runDir, rundir.FollowOptions{Poll: *poll, Idle: *idle}, stop, sink); err != nil {
		fail(err)
	}
	if engine == nil {
		fail(fmt.Errorf("stopped before %s appeared in %s", "run.json", *runDir))
	}

	out, err := engine.Finalize()
	if err != nil {
		fail(err)
	}
	st := engine.Stats()
	logger.Info("run complete",
		"events", st.Events, "skipped_lines", st.ParseErrors,
		"samples", st.Samples, "windows", st.WindowsFlushed)
	if out != nil {
		logger.Info("exact report ready at /report")
	} else {
		logger.Info("bounded mode: live profile at /profile, no exact /report")
	}
	// Archive the finalized profile so /runs and /diff can compare this run
	// against earlier ones; requires the exact output (retain mode).
	if *storeDir != "" && liveSrv != nil {
		if out == nil {
			logger.Info("bounded mode: nothing archived (no exact profile)")
		} else {
			rec := profstore.BuildRecord(runInfo, out)
			rec.Label = *runLabel
			meta, evicted, err := liveSrv.ArchiveRecord(rec)
			if err != nil {
				fail(err)
			}
			logger.Info("archived run", "id", meta.ID, "evicted", len(evicted))
		}
	}
	// Baseline-regression rules only see finalized records: evaluate the
	// completed run against the archive-learned baselines (a clean run here
	// resolves alerts a noisy earlier run left firing).
	if alertEv != nil && out != nil {
		rec := profstore.BuildRecord(runInfo, out)
		rec.Label = *runLabel
		evs := alertEv.EvalRecord(rec, filepath.Base(filepath.Clean(*runDir)))
		for _, tr := range evs {
			logger.Info("alert transition", "rule", tr.Rule, "from", tr.From, "to", tr.To)
		}
		if len(evs) > 0 && publishAlerts != nil {
			publishAlerts(evs)
		}
		if n := alertEv.FiringCount(); n > 0 {
			logger.Warn("alerts firing at run end", "firing", n)
		}
	}

	// Graceful shutdown: the finalize above already drained every in-flight
	// window flush (Follow returns before Finalize runs), so all that is
	// left is letting in-flight HTTP requests complete within the budget.
	<-stop
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if broker != nil {
		broker.Shutdown() // end SSE streams so HTTP shutdown can drain
	}
	_ = httpSrv.Shutdown(ctx)
	if capt != nil {
		capt.Close() // drain queued bundle captures
	}
	if notifier != nil {
		notifier.Close()
	}
}

// loadAlertRules parses the -alert-rules file.
func loadAlertRules(path string) ([]alert.Rule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, err := alert.ParseRules(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

// fleetOptions carries the fleet-mode flag values.
type fleetOptions struct {
	active, queue     int
	stall, poll, idle time.Duration
	timeslice         time.Duration
	window, maxWin    int
	parallel          int
	explain           bool
	storeDir          string
	store             profstore.Options
	shutdownTO        time.Duration
	ui                bool
	alertRules        []alert.Rule
	notifier          *alert.Notifier
	logRing           *obs.LogRing
	bundleDir         string
	bundleMax         int
	bundleMinGap      time.Duration
	bundleCPU         time.Duration
}

// newCapturer builds the flight bundle capturer from the -bundle-* flags, or
// nil when -bundle-dir is unset.
func newCapturer(dir string, max int, minGap, cpu time.Duration, rec *flight.Recorder, ev *alert.Evaluator, overhead func() []obs.RunOverhead) *flight.Capturer {
	if dir == "" {
		return nil
	}
	capt, err := flight.NewCapturer(flight.Config{
		Dir: dir, MaxBundles: max, MinInterval: minGap, CPUProfile: cpu,
		Recorder: rec, Alerts: ev, Overhead: overhead, Logger: logger,
	})
	if err != nil {
		fail(err)
	}
	return capt
}

// watchSIGQUIT captures a bundle on every SIGQUIT instead of the runtime's
// stack-dump-and-exit default: the process stays up and the operator gets
// profiles, trace, and logs on disk.
func watchSIGQUIT(capt *flight.Capturer) {
	if capt == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			logger.Info("SIGQUIT: capturing diagnostics bundle")
			capt.Trigger(flight.TriggerSignal, "SIGQUIT", nil)
		}
	}()
}

// onFiring triggers a bundle capture for every alert transitioning to firing.
func onFiring(capt *flight.Capturer, evs []alert.Event, run string) {
	if capt == nil {
		return
	}
	for _, ev := range evs {
		if ev.To == alert.StateFiring {
			var runs []string
			if run != "" {
				runs = []string{run}
			}
			capt.Trigger(flight.TriggerAlert, "alert "+ev.Rule+" firing", runs)
			return // one trigger per batch; the rate limit would eat the rest anyway
		}
	}
}

// runFleet is fleet mode: many concurrent runs behind the admission
// scheduler, discovered from the watch directory or registered over HTTP.
func runFleet(watchDir, addr string, opt fleetOptions) {
	cfg := fleet.Config{
		MaxActive:    opt.active,
		QueueDepth:   opt.queue,
		StallTimeout: opt.stall,
		Poll:         opt.poll,
		Idle:         opt.idle,
		WindowSlices: opt.window,
		MaxWindows:   opt.maxWin,
		Parallelism:  opt.parallel,
		Explain:      opt.explain,
		Logger:       logger,
	}
	if opt.timeslice > 0 {
		cfg.Timeslice = vtime.Duration(opt.timeslice)
	}
	if opt.storeDir != "" {
		store, err := profstore.Open(opt.storeDir, opt.store)
		if err != nil {
			fail(err)
		}
		cfg.Archive = store
	}
	// Fleet SSE carries only alert frames (window frames are single-run);
	// the broker still feeds the UI banner's live refresh.
	var broker *ui.Broker
	if opt.ui {
		broker = ui.NewBroker(0)
	}
	var alertEv *alert.Evaluator
	if len(opt.alertRules) > 0 {
		var base *alert.Baselines
		if cfg.Archive != nil {
			base = alert.LearnArchive(cfg.Archive)
			logger.Info("learned alert baselines",
				"runs", base.Runs(), "cells", base.Len())
		}
		alertEv = alert.NewEvaluator(opt.alertRules, base, alert.Config{})
		cfg.Alerts = alertEv
	}
	// Flight recorder: window snapshots from every run's flush hook, bundle
	// captures on firing alerts, stall/shed incidents, degraded health,
	// SIGQUIT, and POST /debug/bundle. Fleet engines carry no tracer, so
	// bundles omit the self-trace section here.
	recorder := flight.NewRecorder(nil, opt.logRing)
	cfg.OnWindowFlush = recorder.OnWindowFlush
	var fl *fleet.Fleet
	capt := newCapturer(opt.bundleDir, opt.bundleMax, opt.bundleMinGap, opt.bundleCPU,
		recorder, alertEv, func() []obs.RunOverhead {
			if fl == nil {
				return nil // capture raced fleet construction
			}
			return fl.Overhead()
		})
	watchSIGQUIT(capt)
	if capt != nil {
		cfg.OnIncident = func(kind, detail, run string) {
			capt.Trigger(flight.Trigger(kind), detail, []string{run})
		}
	}
	if alertEv != nil {
		cfg.OnAlert = func(evs []alert.Event) {
			recorder.OnAlerts(evs)
			if len(evs) > 0 {
				onFiring(capt, evs, evs[0].Run)
			}
			if broker != nil {
				broker.PublishAlerts(evs)
			}
			if opt.notifier != nil {
				opt.notifier.Notify(evs)
			}
		}
	}
	fl = fleet.New(cfg)
	srv := fleet.NewServer(fl)
	srv.Handle("/logs", "recent log records from the flight recorder's ring (?level=&limit=)",
		flight.LogsHandler(opt.logRing))
	srv.Handle("/debug/overhead", "per-run framework overhead accounting (JSON)",
		flight.OverheadHandler(fl.Overhead))
	if capt != nil {
		bh := flight.BundlesHandler(capt)
		srv.Handle("/debug/bundle", "POST: capture a diagnostics bundle now (?detail=)",
			flight.TriggerHandler(capt))
		srv.Handle("/debug/bundles", "captured diagnostics bundles (JSON)", bh)
		srv.Handle("/debug/bundles/", "fetch one diagnostics bundle as a tar stream", bh)
	}
	// Fleet UI: run picker over /fleet/runs, per-run view models via
	// /api/*?run=, archive diffs via /diff, alert banner via /api/alerts
	// with SSE alert frames on /api/events.
	if opt.ui {
		uis := ui.NewServer(ui.Config{Fleet: fl, Broker: broker, Alerts: alertEv, Overhead: fl.Overhead})
		srv.MountUI(uis, uis.Routes())
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	if broker != nil {
		broker.RegisterMetrics(reg)
	}
	if alertEv != nil {
		srv.SetAlerts(alertEv, alert.RegisterMetrics(reg, alertEv))
	}
	srv.RegisterMetrics(reg)
	recorder.RegisterMetrics(reg)
	capt.RegisterMetrics(reg)
	flight.RegisterOverheadMetrics(reg, fl.Overhead)

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()
	logger.Info(fmt.Sprintf("fleet mode: listening on %s, watching %s (active<=%d queue<=%d)",
		addr, watchDir, opt.active, opt.queue))

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		close(stop)
	}()
	if capt != nil {
		capt.WatchHealth(stop, 0, func() (bool, string) {
			h := srv.Health()
			if h.Status == "ok" {
				return false, ""
			}
			return true, strings.Join(h.Reasons, "; ")
		})
	}

	if err := fl.Watch(watchDir, stop); err != nil {
		fail(err)
	}

	// Drain: let every active run finish its in-flight flush/finalize (each
	// still archives), then stop HTTP, all within the shutdown budget.
	ctx, cancel := context.WithTimeout(context.Background(), opt.shutdownTO)
	defer cancel()
	if err := fl.Shutdown(ctx); err != nil {
		logger.Warn(err.Error())
	}
	if broker != nil {
		broker.Shutdown() // end SSE streams so HTTP shutdown can drain
	}
	_ = httpSrv.Shutdown(ctx)
	if capt != nil {
		capt.Close() // drain queued bundle captures
	}
	if opt.notifier != nil {
		opt.notifier.Close()
	}
}

// buildEngine resolves the run's models through the same entry point as the
// batch CLI and sizes the streaming engine from the run metadata. The tracer
// self-traces window flushes and the final batch pipeline, feeding /trace.
func buildEngine(info rundir.Info, timeslice time.Duration, window, maxWin int, bounded bool, parallel int, explainOn bool, tracer *obs.Tracer, onFlush func(*stream.WindowResult), alerts *alert.Evaluator, onAlert func([]alert.Event), account *obs.RunAccount) (*stream.Engine, error) {
	models, err := grade10.ModelsForEngine(info.Engine, grade10.ModelParams{
		Job:              info.Job,
		Cores:            info.Cores,
		NetBandwidth:     info.NetBandwidth,
		DiskBandwidth:    info.DiskBandwidth,
		ThreadsPerWorker: info.ThreadsPerWorker,
	})
	if err != nil {
		return nil, err
	}
	resources := 3 // cpu, net-in, net-out
	if info.DiskBandwidth > 0 {
		resources++
	}
	cfg := stream.Config{
		Models:            models,
		WindowSlices:      window,
		MaxWindows:        maxWin,
		ExpectedInstances: info.Workers * resources,
		RetainForFinal:    !bounded,
		Parallelism:       parallel,
		Tracer:            tracer,
		Explain:           explainOn,
		OnWindowFlush:     onFlush,
		Alerts:            alerts,
		OnAlert:           onAlert,
		Account:           account,
	}
	if timeslice > 0 {
		cfg.Timeslice = vtime.Duration(timeslice)
	}
	return stream.New(cfg)
}

func fail(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
