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
//	open  localhost:7070/ui/                # visual profiler with run picker + diff view
//
// Both modes are the same service (internal/service): a single run is a
// fleet of one whose endpoints are aliases for that run. So every flag
// means the same in both — -pprof, -stale, -stall-timeout, the alerting,
// flight-recorder and archive flags (/runs and /diff with -store) — except
// -run-label, which only -run uses (fleet runs are labelled "fleet:NAME"),
// and -fleet-active and -fleet-queue, which only -fleet uses. Setting a
// flag the chosen mode does not use is a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/flight"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/service"
	"grade10/internal/vtime"
)

func main() {
	var (
		runDir      = flag.String("run", "", "single-run mode: run directory to tail (mutually exclusive with -fleet)")
		addr        = flag.String("addr", ":7070", "HTTP listen address")
		poll        = flag.Duration("poll", 100*time.Millisecond, "file polling interval")
		idle        = flag.Duration("idle", time.Second, "idle time after which a run counts as complete")
		timeslice   = flag.Duration("timeslice", 0, "analysis timeslice (virtual; default 10ms)")
		window      = flag.Int("window", 64, "timeslices per live analysis window")
		maxWin      = flag.Int("max-windows", 32, "recent windows retained for /windows")
		parallel    = flag.Int("parallelism", 0, "analysis worker count (0 = GOMAXPROCS); results are identical for every value")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		uiOn        = flag.Bool("ui", true, "serve the embedded visual profiler under /ui/ (view models under /api/, live updates over SSE on /api/events)")
		explainOn   = flag.Bool("explain", false, "capture attribution provenance and serve /explain queries")
		stale       = flag.Duration("stale", 0, "report /healthz degraded (503) when a run's last ingested input is older than this (0 disables)")
		storeDir    = flag.String("store", "", "profile archive directory: serve /runs and /diff, and archive every finalized run")
		storeMax    = flag.Int("store-max", 0, "archive retention: keep at most this many runs per shard, evicting oldest first (0 = unbounded)")
		storeShards = flag.Int("store-shards", 0, "shard count of a newly created archive, split by run-ID prefix (0 = 1); an existing archive keeps the count it was created with")
		runLabel    = flag.String("run-label", "", "single-run mode: free-form label recorded with the archived run")
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
		stallTimeout = flag.Duration("stall-timeout", 0, "tear a run down if its run.json has not appeared this long after it started (0 disables)")
		shutdownTO   = flag.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown budget: drain in-flight window flushes/finalizes and HTTP before exiting")
	)
	flag.Parse()
	// Every log record tees into the flight recorder's bounded ring (down to
	// debug, regardless of -log-level) so /logs and bundle captures carry
	// recent history.
	logRing := obs.NewLogRing(0)
	logger, err := obs.NewLoggerWithRing(os.Stderr, "serve", *logFormat, *logLevel, logRing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	usage := func(msg string) {
		logger.Error(msg)
		os.Exit(2)
	}
	if (*runDir == "") == (*fleetDir == "") {
		usage("exactly one of -run (single run) or -fleet (watch directory) is required")
	}
	if *runDir != "" {
		if bad := setFlags("fleet-active", "fleet-queue"); bad != "" {
			usage(bad + " only applies to -fleet")
		}
	} else if bad := setFlags("run-label"); bad != "" {
		usage(bad + " only applies to -run (fleet runs are labelled fleet:NAME)")
	}
	// Alert rules parse before anything expensive so a typo fails fast with
	// the rule text and position.
	var rules []alert.Rule
	if *alertRules != "" {
		if rules, err = loadAlertRules(*alertRules); err != nil {
			usage(err.Error())
		}
	}
	if *alertWebhook != "" && len(rules) == 0 {
		usage("-alert-webhook needs -alert-rules")
	}
	cfg := service.Config{
		Addr: *addr,
		Fleet: fleet.Config{
			MaxActive: *fleetActive, QueueDepth: *fleetQueue,
			StallTimeout: *stallTimeout, Stale: *stale,
			Poll: *poll, Idle: *idle,
			Timeslice: vtime.Duration(*timeslice), WindowSlices: *window, MaxWindows: *maxWin,
			Parallelism: *parallel, Explain: *explainOn,
			Logger: logger,
		},
		Pprof: *pprofOn, UI: *uiOn,
		Rules: rules, Webhook: *alertWebhook,
		Bundles: flight.Config{
			Dir: *bundleDir, MaxBundles: *bundleMax, MinInterval: *bundleMinGap, CPUProfile: *bundleCPU,
		},
		LogRing:         logRing,
		ShutdownTimeout: *shutdownTO,
	}
	if *storeDir != "" {
		store, err := profstore.Open(*storeDir, profstore.Options{Shards: *storeShards, MaxRunsPerShard: *storeMax})
		if err != nil {
			logger.Error(err.Error())
			os.Exit(1)
		}
		cfg.Fleet.Archive = store
	}
	if *runDir != "" {
		err = service.Serve(cfg, fleet.Source{Dir: *runDir, Label: *runLabel})
	} else {
		err = service.ServeFleet(cfg, *fleetDir)
	}
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
}

// setFlags names which of the given flags were set on the command line
// ("-a, -b"), or "" when none were.
func setFlags(names ...string) string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				set = append(set, "-"+n)
			}
		}
	})
	sort.Strings(set)
	return strings.Join(set, ", ")
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
