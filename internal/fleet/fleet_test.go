package fleet

import (
	"bytes"
	"context"
	"encoding/json"
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

	"grade10/internal/cluster"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/obs"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// fastFollow are the tailing knobs for tests: the fixture directories are
// complete before registration, so short poll/idle cycles finish each run
// in tens of milliseconds.
const (
	testPoll = 2 * time.Millisecond
	testIdle = 10 * time.Millisecond
)

// fleetFixture holds two template run directories: a quiet baseline and a
// noisy variant of the same job (heavy unmodeled background CPU load), both
// declaring the same shared hosts in their placement manifests.
type fleetFixture struct {
	quietDir string
	noisyDir string
}

var (
	ffOnce sync.Once
	ff     *fleetFixture
	ffErr  error
)

func getFleetFixture(t *testing.T) *fleetFixture {
	t.Helper()
	ffOnce.Do(func() {
		root, err := os.MkdirTemp("", "grade10-fleet-fixture-")
		if err != nil {
			ffErr = err
			return
		}
		quiet, err := simulateRun(1)
		if err != nil {
			ffErr = err
			return
		}
		noisy, err := simulateRun(2.5)
		if err != nil {
			ffErr = err
			return
		}
		f := &fleetFixture{
			quietDir: filepath.Join(root, "quiet"),
			noisyDir: filepath.Join(root, "noisy"),
		}
		if err := rundir.Save(f.quietDir, quiet); err != nil {
			ffErr = err
			return
		}
		if err := rundir.Save(f.noisyDir, noisy); err != nil {
			ffErr = err
			return
		}
		ff = f
	})
	if ffErr != nil {
		t.Fatalf("building fleet fixture: %v", ffErr)
	}
	return ff
}

// simulateRun executes a small BSP job and packages it as a run directory
// payload whose placement manifest maps both workers onto shared hosts. The
// machines have few cores so compute saturates them — co-scheduling two such
// runs on one host overcommits its CPU, which is what blame measures. scale
// multiplies the compute costs, making the scaled variant measurably slower
// (a cross-run regression) with a distinct record content ID.
func simulateRun(scale float64) (*rundir.Run, error) {
	ds := workload.Dataset{Name: "fleet-test",
		Gen: func() *graph.Graph { return graph.RMAT(9, 8, 7) }}
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.Machine.Cores = 1
	cfg.CostPerVertex *= scale
	cfg.CostPerEdge *= scale
	cfg.CostPerMessage *= scale
	cfg.PrepareCost *= scale
	run, err := workload.RunGiraph(workload.Spec{Dataset: ds, Algorithm: "bfs"}, cfg)
	if err != nil {
		return nil, err
	}
	monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start,
		run.Result.End, 10*vtime.Millisecond)
	if err != nil {
		return nil, err
	}
	prog, err := workload.NewProgram("bfs", ds.Graph())
	if err != nil {
		return nil, err
	}
	return &rundir.Run{
		Info: rundir.Info{
			Engine: "giraph", Job: prog.Name(), Workers: cfg.Workers,
			ThreadsPerWorker: cfg.ThreadsPerWorker, Cores: cfg.Machine.Cores,
			NetBandwidth: cfg.Machine.NetBandwidth, DiskBandwidth: cfg.Machine.DiskBandwidth,
			StartNS: int64(run.Result.Start), EndNS: int64(run.Result.End),
			Placement: []rundir.Placement{
				{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"},
			},
		},
		Log:        run.Result.Log,
		Monitoring: monitoring,
	}, nil
}

// copyRun clones a template run directory, optionally replacing the
// placement manifest (nil keepPlacement=false strips it).
func copyRun(t *testing.T, src, dst string, placement []rundir.Placement) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"execution.log", "monitoring.csv"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(src, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var info rundir.Info
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	info.Placement = placement
	out, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "run.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stageRun builds a run directory in a staging area and renames it into its
// final location so a directory watcher never sees a half-written run.
func stageRun(t *testing.T, src, stagingRoot, dst string, placement []rundir.Placement) {
	t.Helper()
	tmp, err := os.MkdirTemp(stagingRoot, "stage-")
	if err != nil {
		t.Fatal(err)
	}
	staged := filepath.Join(tmp, filepath.Base(dst))
	copyRun(t, src, staged, placement)
	if err := os.Rename(staged, dst); err != nil {
		t.Fatal(err)
	}
}

// getJSON fetches a URL and decodes the JSON payload into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// waitSettled polls until every retained run reaches a terminal status.
func waitSettled(t *testing.T, f *Fleet, want int, timeout time.Duration) FleetSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap := f.Snapshot()
		settled := 0
		for _, r := range snap.Runs {
			switch r.Status {
			case StatusDone, StatusFailed, StatusStalled:
				settled++
			}
		}
		if settled >= want && len(snap.Runs) >= want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d/%d runs settled: %+v", settled, want, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetHundredRunsBounded is the scale acceptance: >=100 registered runs
// complete behind a small active cap, the cap is never exceeded, engines are
// torn down afterwards, and registrations past active+queue are shed.
func TestFleetHundredRunsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 100 runs")
	}
	fx := getFleetFixture(t)
	root := t.TempDir()
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const total, cap = 100, 4
	f := New(Config{
		MaxActive: cap, QueueDepth: total, Poll: testPoll, Idle: testIdle,
		Archive: store,
	})
	for i := 0; i < total; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run-%03d", i))
		copyRun(t, fx.quietDir, dir, nil) // no placement: pure throughput
		_, d, err := f.Register(dir)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if d == DecisionShed {
			t.Fatalf("register %d shed with queue depth %d", i, total)
		}
		if a, _, _ := f.Counts(); a > cap {
			t.Fatalf("active = %d exceeds cap %d", a, cap)
		}
	}
	// The cap holds while the backlog drains.
	var snap FleetSnapshot
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if a, _, _ := f.Counts(); a > cap {
			t.Fatalf("active = %d exceeds cap %d mid-drain", a, cap)
		}
		snap = f.Snapshot()
		settled := 0
		for _, r := range snap.Runs {
			if r.Status != StatusQueued && r.Status != StatusActive {
				settled++
			}
		}
		if settled == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out draining: %d/%d settled", settled, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range snap.Runs {
		if r.Status != StatusDone {
			t.Fatalf("run %s = %s (%s)", r.Name, r.Status, r.Error)
		}
		if r.ArchiveID == "" || r.MakespanNS <= 0 {
			t.Fatalf("run %s missing archive/makespan: %+v", r.Name, r)
		}
	}
	// Teardown is complete: no engines remain, so no staleness gauges.
	if st := f.Staleness(); len(st) != 0 {
		t.Fatalf("engines still alive after completion: %v", st)
	}
	if a, q, shed := f.Counts(); a != 0 || q != 0 || shed != 0 {
		t.Fatalf("counts = (%d,%d,%d), want all zero", a, q, shed)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Past the cap: a tiny fleet sheds the overflow and counts it.
	f2 := New(Config{MaxActive: 1, QueueDepth: 2, Poll: testPoll, Idle: testIdle})
	var sheds int64
	for i := 0; i < 6; i++ {
		_, d, err := f2.Register(filepath.Join(root, fmt.Sprintf("run-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if d == DecisionShed {
			sheds++
		}
	}
	if sheds != 3 {
		t.Fatalf("sheds = %d, want 3 of 6 past active=1+queue=2", sheds)
	}
	if _, _, shed := f2.Counts(); shed != sheds {
		t.Fatalf("shed counter = %d, want %d", shed, sheds)
	}
	waitSettled(t, f2, 3, time.Minute)
	if err := f2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCrossJobBlame is the end-to-end blame acceptance: two
// co-scheduled runs (one noisy) ingest through real engines, and the quiet
// run's contended time lands on the noisy neighbor — byte-identically at
// every parallelism.
func TestFleetCrossJobBlame(t *testing.T) {
	fx := getFleetFixture(t)
	var golden []byte
	for _, par := range []int{1, 3} {
		root := t.TempDir()
		quiet := filepath.Join(root, "quiet")
		noisy := filepath.Join(root, "noisy")
		shared := []rundir.Placement{{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"}}
		copyRun(t, fx.quietDir, quiet, shared)
		copyRun(t, fx.noisyDir, noisy, shared)

		f := New(Config{MaxActive: 2, QueueDepth: 4, Poll: testPoll, Idle: testIdle, Parallelism: par})
		for _, dir := range []string{quiet, noisy} {
			if _, _, err := f.Register(dir); err != nil {
				t.Fatal(err)
			}
		}
		waitSettled(t, f, 2, time.Minute)

		rep, err := f.Blame("quiet")
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalContendedNS <= 0 {
			t.Fatal("co-scheduled overcommit produced zero contended time")
		}
		if len(rep.Neighbors) != 1 || rep.Neighbors[0].Run != "noisy" {
			t.Fatalf("neighbors = %+v, want noisy", rep.Neighbors)
		}
		if rep.Neighbors[0].BlamedNS <= 0 {
			t.Fatal("noisy neighbor got zero blame")
		}
		assertSharesSum(t, rep)
		// Evidence carries explain pointers into the target's own profile.
		ev := rep.Neighbors[0].Resources[0].Evidence
		if len(ev) == 0 || !strings.Contains(ev[0].ExplainQuery, "resource=") {
			t.Fatalf("evidence = %+v", ev)
		}

		var buf bytes.Buffer
		if err := WriteBlameJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = buf.Bytes()
		} else if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("parallelism %d changed the blame report", par)
		}
		if err := f.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetServerEndpoints drives the HTTP surface end to end: watch-dir
// discovery, POST registration, cross-run endpoints, and metrics.
func TestFleetServerEndpoints(t *testing.T) {
	fx := getFleetFixture(t)
	root := t.TempDir()
	watch := filepath.Join(root, "watch")
	if err := os.MkdirAll(watch, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := profstore.Open(filepath.Join(root, "archive"), profstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{MaxActive: 2, QueueDepth: 8, Poll: testPoll, Idle: testIdle, Archive: store})
	stop := make(chan struct{})
	watchDone := make(chan error, 1)
	go func() { watchDone <- f.Watch(watch, stop) }()
	defer func() {
		close(stop)
		if err := <-watchDone; err != nil {
			t.Errorf("watch: %v", err)
		}
	}()

	ts := httptest.NewServer(serveFleet(f, obs.NewRegistry()))
	defer ts.Close()

	// Stage each run outside the watch dir and rename it in atomically, quiet
	// first, so the regression diff sees the baseline archived before the
	// slow variant.
	shared := []rundir.Placement{{Machine: 0, Host: "hostA"}, {Machine: 1, Host: "hostB"}}
	stageRun(t, fx.quietDir, root, filepath.Join(watch, "quiet"), shared)
	waitSettled(t, f, 1, time.Minute)
	stageRun(t, fx.noisyDir, root, filepath.Join(watch, "noisy"), shared)
	waitSettled(t, f, 2, time.Minute)

	var snap FleetSnapshot
	getJSON(t, ts.URL+"/fleet/runs", &snap)
	if len(snap.Runs) != 2 {
		t.Fatalf("fleet/runs = %+v, want quiet and noisy", snap.Runs)
	}
	for _, r := range snap.Runs {
		if r.Status != StatusDone || r.ArchiveID == "" {
			t.Fatalf("run %+v not done+archived", r)
		}
	}

	var bt struct {
		Bottlenecks []FleetBottleneck `json:"bottlenecks"`
	}
	getJSON(t, ts.URL+"/fleet/bottlenecks?k=5", &bt)
	if len(bt.Bottlenecks) > 5 {
		t.Fatalf("k=5 returned %d bottlenecks", len(bt.Bottlenecks))
	}

	// quiet and noisy share (engine, job, workers): exactly one diff pair,
	// and the noisy run is slower, so the verdict is a regression.
	var rg struct {
		Regressions []Regression `json:"regressions"`
	}
	getJSON(t, ts.URL+"/fleet/regressions?k=5", &rg)
	if len(rg.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want one pair", rg.Regressions)
	}
	if rg.Regressions[0].Verdict != "regressed" {
		t.Fatalf("verdict = %s, want regressed (noise slows the run)", rg.Regressions[0].Verdict)
	}

	var rep BlameReport
	getJSON(t, ts.URL+"/fleet/blame?run=quiet", &rep)
	if rep.TotalContendedNS <= 0 || len(rep.Neighbors) == 0 {
		t.Fatalf("blame = %+v, want nonzero on noisy", rep)
	}
	if resp, err := http.Get(ts.URL + "/fleet/blame?run=missing"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("blame on unknown run: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	// POST registration (a third copy) is accepted and completes.
	third := filepath.Join(root, "third")
	copyRun(t, fx.quietDir, third, nil)
	body, _ := json.Marshal(map[string]string{"dir": third})
	resp, err := http.Post(ts.URL+"/fleet/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /fleet/runs = %s", resp.Status)
	}
	resp.Body.Close()
	waitSettled(t, f, 3, time.Minute)

	// Metrics include the fleet families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, family := range []string{
		"grade10_fleet_runs_active", "grade10_fleet_runs_queued", "grade10_fleet_runs_shed_total",
	} {
		if !bytes.Contains(mbody, []byte(family)) {
			t.Fatalf("metrics missing %s:\n%s", family, mbody)
		}
	}
}

// TestFleetStallTeardown: a directory that never produces run.json is torn
// down by the stall watchdog and its slot is released.
func TestFleetStallTeardown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "empty-run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f := New(Config{
		MaxActive: 1, QueueDepth: 1, Poll: testPoll, Idle: testIdle,
		StallTimeout: 30 * time.Millisecond,
	})
	if _, d, err := f.Register(dir); err != nil || d != DecisionActive {
		t.Fatalf("register = (%s, %v)", d, err)
	}
	snap := waitSettled(t, f, 1, time.Minute)
	if snap.Runs[0].Status != StatusStalled {
		t.Fatalf("status = %s (%s), want stalled", snap.Runs[0].Status, snap.Runs[0].Error)
	}
	// The status flips to stalled before the worker winds down and releases
	// its slot, so give the release a moment instead of sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, _, _ := f.Counts()
		if a == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled run still holds an active slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Register(dir); err == nil {
		t.Fatal("register after shutdown did not error")
	}
}

// TestFleetAliasKeepsEngine: a watch-directory run archives as "fleet:NAME"
// and releases its engine when it finishes; the alias run of a fleet of one
// archives under its own label and keeps its engine for the single-run
// endpoints.
func TestFleetAliasKeepsEngine(t *testing.T) {
	fx := getFleetFixture(t)
	store, err := profstore.Open(t.TempDir(), profstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{MaxActive: 2, QueueDepth: 2, Poll: testPoll, Idle: testIdle, Archive: store})
	defer f.Shutdown(context.Background())
	watched, alias := filepath.Join(t.TempDir(), "watched"), filepath.Join(t.TempDir(), "alias")
	copyRun(t, fx.quietDir, watched, nil)
	copyRun(t, fx.noisyDir, alias, nil)
	if _, _, err := f.Register(watched); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.RegisterAlias(Source{Dir: alias, Label: "nightly"}); err != nil {
		t.Fatal(err)
	}
	snap := waitSettled(t, f, 2, time.Minute)
	labels := map[string]string{}
	for _, r := range snap.Runs {
		if r.Status != StatusDone {
			t.Fatalf("run %+v not done", r)
		}
		rec, err := store.Get(r.ArchiveID)
		if err != nil {
			t.Fatal(err)
		}
		labels[r.Name] = rec.Label
	}
	if labels["watched"] != "fleet:watched" || labels["alias"] != "nightly" {
		t.Fatalf("archive labels = %v", labels)
	}
	if _, _, ok := f.EngineFor("watched"); ok {
		t.Error("watch-directory run kept its engine after finishing")
	}
	if e, _, ok := f.EngineFor("alias"); !ok || e.Final() == nil {
		t.Error("alias run released its engine or has no final profile")
	}
}
