package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grade10/internal/alert"
	"grade10/internal/obs"
	"grade10/internal/profstore"
)

// TestFleetAlertFiringResolve is the record-path lifecycle end to end: a
// quiet run archived as history, baselines learned from the archive, then a
// noisy re-run of the same job fires a duration-regression rule — visible on
// /alerts and as ALERTS series on /metrics — and a subsequent clean run
// resolves it.
func TestFleetAlertFiringResolve(t *testing.T) {
	fx := getFleetFixture(t)
	root := t.TempDir()
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: archive the quiet baseline through a plain fleet.
	f1 := New(Config{MaxActive: 1, QueueDepth: 2, Poll: testPoll, Idle: testIdle, Archive: store})
	base := filepath.Join(root, "base")
	copyRun(t, fx.quietDir, base, nil)
	if _, _, err := f1.Register(base); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, f1, 1, time.Minute)
	if err := f1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Phase 2: learn baselines and build one duration-regression rule per
	// machine-aggregated phase type. The noisy variant scales every compute
	// cost 2.5x, so at least one phase duration must blow past 20%.
	baselines := alert.LearnArchive(store)
	if baselines.Runs() == 0 || baselines.Len() == 0 {
		t.Fatalf("learned nothing from the archive: runs=%d cells=%d", baselines.Runs(), baselines.Len())
	}
	var ruleText strings.Builder
	n := 0
	for _, k := range baselines.Keys() {
		if k.Quantity != alert.QuantityDuration || k.Machine != -1 {
			continue
		}
		fmt.Fprintf(&ruleText, "alert dur%d severity critical when phase=%s regressed > 20%% vs baseline\n", n, k.PhasePath)
		n++
	}
	if n == 0 {
		t.Fatal("no machine-aggregated duration baselines learned")
	}
	rules, err := alert.ParseRules(strings.NewReader(ruleText.String()))
	if err != nil {
		t.Fatalf("%v\nrules:\n%s", err, ruleText.String())
	}

	ev := alert.NewEvaluator(rules, baselines, alert.Config{})
	var mu sync.Mutex
	var transitions []alert.Event
	f2 := New(Config{
		MaxActive: 1, QueueDepth: 2, Poll: testPoll, Idle: testIdle,
		Archive: store, Alerts: ev,
		OnAlert: func(evs []alert.Event) {
			mu.Lock()
			transitions = append(transitions, evs...)
			mu.Unlock()
		},
	})
	defer f2.Shutdown(context.Background())
	srv := serveFleet(f2, obs.NewRegistry())
	alert.Mount(srv, ev)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Noisy run: the regression fires.
	noisy := filepath.Join(root, "noisy")
	copyRun(t, fx.noisyDir, noisy, nil)
	if _, _, err := f2.Register(noisy); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, f2, 1, time.Minute)
	if ev.FiringCount() == 0 {
		t.Fatalf("no rule fired on the noisy run; snapshot: %+v", ev.Snapshot())
	}
	var snap alert.Snapshot
	getJSON(t, ts.URL+"/alerts", &snap)
	if snap.Firing == 0 || len(snap.Instances) == 0 {
		t.Fatalf("/alerts shows nothing firing: %+v", snap)
	}
	for _, inst := range snap.Instances {
		if inst.State == alert.StateFiring && inst.Run != "noisy" {
			t.Errorf("firing instance not annotated with the noisy run: %+v", inst)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`ALERTS{alertname="dur`, `alertstate="firing"`, "grade10_alerts_firing"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	mu.Lock()
	sawFiring := false
	for _, tr := range transitions {
		if tr.To == alert.StateFiring {
			sawFiring = true
		}
	}
	mu.Unlock()
	if !sawFiring {
		t.Error("OnAlert never delivered a firing transition")
	}

	// Clean run: back at baseline, everything that fired resolves.
	clean := filepath.Join(root, "clean")
	copyRun(t, fx.quietDir, clean, nil)
	if _, _, err := f2.Register(clean); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, f2, 2, time.Minute)
	if got := ev.FiringCount(); got != 0 {
		t.Fatalf("firing = %d after the clean run, want 0: %+v", got, ev.Snapshot())
	}
	getJSON(t, ts.URL+"/alerts", &snap)
	if snap.Resolved == 0 {
		t.Fatalf("/alerts shows no resolved instances after the clean run: %+v", snap)
	}
}

// TestFleetHealthzHealthy: a fleet whose runs all finished cleanly answers
// 200 with an empty reason list.
func TestFleetHealthzHealthy(t *testing.T) {
	fx := getFleetFixture(t)
	f := New(Config{MaxActive: 1, QueueDepth: 2, Poll: testPoll, Idle: testIdle})
	defer f.Shutdown(context.Background())
	dir := filepath.Join(t.TempDir(), "ok-run")
	copyRun(t, fx.quietDir, dir, nil)
	if _, _, err := f.Register(dir); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, f, 1, time.Minute)

	srv := serveFleet(f, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s, want 200", resp.Status)
	}
	var h HealthView
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || len(h.Reasons) != 0 {
		t.Fatalf("health = %+v, want ok with no reasons", h)
	}
}

// TestFleetHealthzDegraded: a stalled run and a shed registration each
// surface as a reason, and the endpoint answers 503.
func TestFleetHealthzDegraded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f := New(Config{
		MaxActive: 1, QueueDepth: 1, Poll: testPoll, Idle: testIdle,
		StallTimeout: 30 * time.Millisecond,
	})
	defer f.Shutdown(context.Background())
	if _, d, err := f.Register(dir); err != nil || d != DecisionActive {
		t.Fatalf("register = (%s, %v)", d, err)
	}
	// A second empty run fills the queue; a third overflows it: shed.
	queued := filepath.Join(t.TempDir(), "queued-run")
	if err := os.MkdirAll(queued, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, d, err := f.Register(queued); err != nil || d != DecisionQueued {
		t.Fatalf("second register = (%s, %v), want queued", d, err)
	}
	shed := filepath.Join(t.TempDir(), "shed-run")
	if err := os.MkdirAll(shed, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, d, err := f.Register(shed); err != nil || d != DecisionShed {
		t.Fatalf("overflow register = (%s, %v), want shed", d, err)
	}
	// Both empty runs stall in turn (the queued one is promoted when the
	// watchdog tears the first down).
	waitSettled(t, f, 2, time.Minute)

	srv := serveFleet(f, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d, want 503", rec.Code)
	}
	h := f.Health()
	if h.Status != "degraded" || len(h.Reasons) != 3 {
		t.Fatalf("health = %+v, want degraded with two stalls + one shed", h)
	}
	joined := strings.Join(h.Reasons, "\n")
	if !strings.Contains(joined, "stalled") || !strings.Contains(joined, "shed") {
		t.Fatalf("reasons = %q", joined)
	}
}

// TestFleetWindowAlertFires: fleet engines carry the same window-level
// evaluator as a single run, so a threshold rule on a window counter fires
// on a window flush. A finalized record has no window counters, so only the
// window path can fire it.
func TestFleetWindowAlertFires(t *testing.T) {
	fx := getFleetFixture(t)
	rules, err := alert.ParseRules(strings.NewReader("alert moving severity info when windows_flushed >= 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	ev := alert.NewEvaluator(rules, nil, alert.Config{})
	var mu sync.Mutex
	var transitions []alert.Event
	f := New(Config{
		MaxActive: 1, QueueDepth: 1, Poll: testPoll, Idle: testIdle, Alerts: ev,
		OnAlert: func(evs []alert.Event) {
			mu.Lock()
			transitions = append(transitions, evs...)
			mu.Unlock()
		},
	})
	defer f.Shutdown(context.Background())
	dir := filepath.Join(t.TempDir(), "quiet")
	copyRun(t, fx.quietDir, dir, nil)
	if _, _, err := f.Register(dir); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, f, 1, time.Minute)
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) == 0 || transitions[0].Rule != "moving" || transitions[0].To != alert.StateFiring {
		t.Fatalf("transitions = %+v, want the window rule firing", transitions)
	}
	if ev.FiringCount() != 1 {
		t.Fatalf("firing = %d, want 1", ev.FiringCount())
	}
}

// TestFleetHealthzStale: with Config.Stale set, an active run whose input
// has gone quiet adds a "run X stale" reason to the fleet's health.
func TestFleetHealthzStale(t *testing.T) {
	fx := getFleetFixture(t)
	f := New(Config{
		MaxActive: 1, QueueDepth: 1, Poll: testPoll, Idle: time.Minute,
		Stale: 20 * time.Millisecond,
	})
	defer f.Shutdown(context.Background())
	dir := filepath.Join(t.TempDir(), "quiet")
	copyRun(t, fx.quietDir, dir, nil)
	if _, _, err := f.Register(dir); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		h := f.Health()
		if h.Status == "degraded" && len(h.Reasons) == 1 &&
			strings.HasPrefix(h.Reasons[0], "run quiet stale: last ingest ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reported the quiet run stale: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
