// Package service is the live characterization service: the one assembly
// behind cmd/serve (-run and -fleet) and cmd/runsim -serve. It builds a
// fleet (internal/fleet) whose runs all share one engine builder and one
// lifecycle — take input from a source, buffer until the run metadata
// arrives, ingest, finalize, build one record, archive it, evaluate
// alerts, publish — and serves it on one HTTP surface (obs.Surface) with
// the alert evaluator, webhook notifier, SSE broker, flight recorder and
// bundle capturer wired once.
//
// A single run is a fleet of one: Start registers it as the fleet's alias
// run and mounts the single-run endpoints (/profile, /report, /explain, ...)
// for it; its engine outlives finalize so they keep answering. Without an
// alias the fleet endpoints (/fleet/*) come up instead and runs arrive from
// a watch directory or POST /fleet/runs, each torn down when it finishes.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"grade10/internal/alert"
	"grade10/internal/fleet"
	"grade10/internal/flight"
	"grade10/internal/obs"
	"grade10/internal/stream"
	"grade10/internal/ui"
)

// Config assembles the service.
type Config struct {
	// Addr is the HTTP listen address (":0" picks a free port; see Addr).
	Addr string
	// Fleet sizes admission, tailing, staleness and every run's engine, and
	// carries the profile archive (Archive) and the Logger. The service sets
	// its Alerts, OnAlert, OnWindowFlush and OnIncident hooks itself.
	Fleet fleet.Config
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// UI mounts the embedded visual profiler under /ui/ and /api/.
	UI bool
	// Rules are the alert rules: threshold rules fire on window flushes,
	// baseline-regression rules on finalized runs against baselines learned
	// from the archive. None disables alerting.
	Rules []alert.Rule
	// Webhook, when set, receives every batch of alert transitions.
	Webhook string
	// Bundles configures the flight recorder's incident bundles; an empty
	// Dir disables capture (the in-memory rings stay on). The service sets
	// its Recorder, Alerts, Overhead and Logger.
	Bundles flight.Config
	// LogRing is the bounded ring the service's logger tees into, served on
	// /logs and captured into bundles; nil takes a fresh one.
	LogRing *obs.LogRing
	// ShutdownTimeout bounds the graceful drain in Close; default 5s.
	ShutdownTimeout time.Duration
}

// Service is a started assembly.
type Service struct {
	cfg      Config
	log      *slog.Logger
	fleet    *fleet.Fleet
	alias    string // the single run's name; "" in fleet mode
	alerts   *alert.Evaluator
	notifier *alert.Notifier
	broker   *ui.Broker
	recorder *flight.Recorder
	capt     *flight.Capturer
	ln       net.Listener
	http     *http.Server
	sigquit  chan os.Signal
	stop     chan struct{}
	once     sync.Once
}

// Start builds the assembly and starts serving HTTP. With an alias source
// the service is a fleet of one serving that run on the single-run
// endpoints; with nil it serves the fleet endpoints and runs arrive through
// the fleet's Watch or POST /fleet/runs.
func Start(cfg Config, alias *fleet.Source) (*Service, error) {
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	if cfg.LogRing == nil {
		cfg.LogRing = obs.NewLogRing(0)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, log: cfg.Fleet.Logger, ln: ln, stop: make(chan struct{})}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	archive := cfg.Fleet.Archive
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	// The single run self-traces into /trace and its bundles; fleet runs
	// carry no tracer, so fleet bundles omit the self-trace section.
	var tracer *obs.Tracer
	if alias != nil {
		src := *alias
		if src.Tracer == nil {
			src.Tracer = obs.NewTracer()
		}
		alias, tracer = &src, src.Tracer
		s.alias = fleet.RunName(src.Dir)
		obs.BridgeTracer(reg, tracer)
	}
	if len(cfg.Rules) > 0 {
		// Baselines come from the archive before this service archives
		// anything, so a run is judged against earlier runs only.
		var base *alert.Baselines
		if archive != nil {
			base = alert.LearnArchive(archive)
			s.log.Info("learned alert baselines", "runs", base.Runs(), "cells", base.Len())
		}
		s.alerts = alert.NewEvaluator(cfg.Rules, base, alert.Config{})
	}
	if cfg.UI {
		s.broker = ui.NewBroker(0)
		s.broker.RegisterMetrics(reg)
	}
	s.recorder = flight.NewRecorder(tracer, cfg.LogRing)
	if cfg.Bundles.Dir != "" {
		bc := cfg.Bundles
		bc.Recorder, bc.Alerts, bc.Logger = s.recorder, s.alerts, s.log
		bc.Overhead = func() []obs.RunOverhead { return s.fleet.Overhead() }
		if s.capt, err = flight.NewCapturer(bc); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if cfg.Webhook != "" {
		s.notifier = alert.NewNotifier(cfg.Webhook, alert.NotifierOptions{Logger: s.log})
	}

	fc := cfg.Fleet
	fc.Logger = s.log
	fc.Alerts = s.alerts
	if s.alerts != nil {
		fc.OnAlert = s.publish
	}
	single := alias != nil
	fc.OnWindowFlush = func(run string, wr *stream.WindowResult) {
		s.recorder.OnWindowFlush(run, wr)
		// SSE window frames carry no run name: only a fleet of one sends them.
		if single && s.broker != nil {
			s.broker.OnWindowFlush(wr)
		}
	}
	if s.capt != nil {
		fc.OnIncident = func(kind, detail, run string) {
			s.capt.Trigger(flight.Trigger(kind), detail, []string{run})
		}
	}
	s.fleet = fleet.New(fc)

	name := "grade10 fleet characterization"
	if single {
		name = "grade10 live characterization"
	}
	surface := obs.NewSurface(name, reg)
	var engine func() *stream.Engine
	if single {
		engine = func() *stream.Engine {
			e, _, _ := s.fleet.EngineFor(s.alias)
			return e
		}
		stream.Mount(surface, engine, fc.Stale)
	} else {
		fleet.Mount(surface, s.fleet)
	}
	if archive != nil {
		stream.MountArchive(surface, archive)
	}
	if s.alerts != nil {
		alert.Mount(surface, s.alerts)
	}
	s.mountFlight(surface)
	if cfg.Pprof {
		surface.EnablePprof()
	}
	if cfg.UI {
		ui.Mount(surface, ui.Config{Engine: engine, Fleet: s.fleet, Broker: s.broker, Alerts: s.alerts})
	}

	if single {
		// The first run of an empty fleet is always admitted.
		if _, _, err := s.fleet.RegisterAlias(*alias); err != nil {
			ln.Close()
			s.capt.Close()
			s.notifier.Close()
			return nil, err
		}
	}
	s.http = &http.Server{Handler: surface}
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("http: " + err.Error())
		}
	}()
	if s.capt != nil {
		s.capt.WatchHealth(s.stop, 0, s.degraded)
		s.watchSIGQUIT()
	}
	return s, nil
}

// mountFlight mounts the flight recorder's endpoints and metrics.
func (s *Service) mountFlight(surface *obs.Surface) {
	surface.Handle("/logs", "recent log records from the flight recorder's ring (?level=&limit=)",
		flight.LogsHandler(s.cfg.LogRing))
	surface.Handle("/debug/overhead", "per-run framework overhead accounting (JSON)",
		flight.OverheadHandler(s.fleet.Overhead))
	if s.capt != nil {
		bh := flight.BundlesHandler(s.capt)
		surface.Handle("/debug/bundle", "POST: capture a diagnostics bundle now (?detail=)",
			flight.TriggerHandler(s.capt))
		surface.Handle("/debug/bundles", "captured diagnostics bundles (JSON)", bh)
		surface.Handle("/debug/bundles/", "fetch one diagnostics bundle as a tar stream", bh)
	}
	reg := surface.Registry()
	s.recorder.RegisterMetrics(reg)
	s.capt.RegisterMetrics(reg)
	flight.RegisterOverheadMetrics(reg, s.fleet.Overhead)
}

// publish fans one batch of alert transitions out to the flight recorder,
// the bundle capturer, the SSE broker and the webhook. Window evaluations
// call it under a run's engine lock; every sink is non-blocking.
func (s *Service) publish(evs []alert.Event) {
	s.recorder.OnAlerts(evs)
	if s.capt != nil {
		for _, ev := range evs {
			if ev.To != alert.StateFiring {
				continue
			}
			var runs []string
			if run := ev.Run; run != "" {
				runs = []string{run}
			} else if s.alias != "" {
				runs = []string{s.alias}
			}
			s.capt.Trigger(flight.TriggerAlert, "alert "+ev.Rule+" firing", runs)
			break // one trigger per batch; the rate limit would eat the rest anyway
		}
	}
	if s.broker != nil {
		s.broker.PublishAlerts(evs)
	}
	if s.notifier != nil {
		s.notifier.Notify(evs)
	}
}

// degraded is the fleet's health as the health watch sees it.
func (s *Service) degraded() (bool, string) {
	h := s.fleet.Health()
	if h.Status == "ok" {
		return false, ""
	}
	return true, strings.Join(h.Reasons, "; ")
}

// watchSIGQUIT captures a bundle on every SIGQUIT instead of the runtime's
// stack-dump-and-exit default: the process stays up and the operator gets
// profiles, trace, and logs on disk.
func (s *Service) watchSIGQUIT() {
	s.sigquit = make(chan os.Signal, 1)
	signal.Notify(s.sigquit, syscall.SIGQUIT)
	go func() {
		for range s.sigquit {
			s.log.Info("SIGQUIT: capturing diagnostics bundle")
			s.capt.Trigger(flight.TriggerSignal, "SIGQUIT", nil)
		}
	}()
}

// Addr returns the address the service listens on.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Wait blocks until the single run has finished and returns why it failed,
// if it did.
func (s *Service) Wait() error {
	<-s.fleet.Done(s.alias)
	return s.runErr()
}

// runErr reports the single run's failure, or nil while it is healthy.
func (s *Service) runErr() error {
	for _, r := range s.fleet.Snapshot().Runs {
		if r.Name == s.alias && (r.Status == fleet.StatusFailed || r.Status == fleet.StatusStalled) {
			return fmt.Errorf("run %s %s: %s", r.Name, r.Status, r.Error)
		}
	}
	return nil
}

// Close shuts the service down in order, within ShutdownTimeout: drain the
// fleet (in-flight flushes and finalizes complete, and each run still
// archives), end the SSE streams so HTTP can drain, stop HTTP, then drain
// queued bundle captures and webhook deliveries. Idempotent.
func (s *Service) Close() error {
	var err error
	s.once.Do(func() {
		close(s.stop)
		if s.sigquit != nil {
			signal.Stop(s.sigquit)
			close(s.sigquit)
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		ferr := s.fleet.Shutdown(ctx)
		if s.broker != nil {
			s.broker.Shutdown()
		}
		herr := s.http.Shutdown(ctx)
		s.capt.Close()
		s.notifier.Close()
		err = errors.Join(ferr, herr)
	})
	return err
}

// Serve runs the single-run service over src until SIGINT or SIGTERM
// (cmd/serve -run). A run that fails ends it at once with its error; one
// stopped by the signal is finalized first.
func Serve(cfg Config, src fleet.Source) error {
	sig := interrupted()
	s, err := Start(cfg, &src)
	if err != nil {
		return err
	}
	s.log.Info(fmt.Sprintf("listening on %s, tailing %s", s.Addr(), src.Dir))
	var runErr error
	select {
	case <-s.fleet.Done(s.alias):
		if runErr = s.runErr(); runErr == nil {
			s.log.Info("exact report ready at /report")
			if s.alerts != nil && s.alerts.FiringCount() > 0 {
				s.log.Warn("alerts firing at run end", "firing", s.alerts.FiringCount())
			}
			<-sig
		}
	case <-sig:
	}
	if err := s.Close(); err != nil {
		s.log.Warn(err.Error())
	}
	if runErr == nil {
		runErr = s.runErr()
	}
	return runErr
}

// ServeFleet runs the fleet service over watchDir until SIGINT or SIGTERM
// (cmd/serve -fleet).
func ServeFleet(cfg Config, watchDir string) error {
	sig := interrupted()
	s, err := Start(cfg, nil)
	if err != nil {
		return err
	}
	s.log.Info(fmt.Sprintf("fleet mode: listening on %s, watching %s (active<=%d queue<=%d)",
		s.Addr(), watchDir, cfg.Fleet.MaxActive, cfg.Fleet.QueueDepth))
	werr := s.fleet.Watch(watchDir, sig)
	if err := s.Close(); err != nil {
		s.log.Warn(err.Error())
	}
	return werr
}

// interrupted returns a channel closed on the first SIGINT or SIGTERM.
func interrupted() <-chan struct{} {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	return done
}
