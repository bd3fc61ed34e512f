package service

import (
	"bufio"
	"bytes"
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
	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/fleet"
	"grade10/internal/flight"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// simRun is one small simulated giraph run, kept in memory.
type simRun struct {
	info       rundir.Info
	run        *rundir.Run
	monitoring []cluster.ResourceSamples
}

// simulate runs pagerank on a small RMAT graph, teeing every log event to
// tee when it is set, and packages the result as a run.
func simulate(t *testing.T, tee func(enginelog.Event)) *simRun {
	t.Helper()
	g := graph.RMAT(8, 8, 3)
	prog, err := workload.NewProgram("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := giraphsim.DefaultConfig()
	cfg.Workers, cfg.ThreadsPerWorker = 2, 2
	info := rundir.Info{
		Engine: "giraph", Job: prog.Name(), Workers: cfg.Workers,
		ThreadsPerWorker: cfg.ThreadsPerWorker, Cores: cfg.Machine.Cores,
		NetBandwidth: cfg.Machine.NetBandwidth, DiskBandwidth: cfg.Machine.DiskBandwidth,
	}
	cfg.Tee = tee
	res, err := giraphsim.Run(prog, graph.HashPartition(g, cfg.Workers), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := cluster.Monitor(res.Cluster, res.Start, res.End, 10*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	full := info
	full.StartNS, full.EndNS = int64(res.Start), int64(res.End)
	return &simRun{info: info, monitoring: mon,
		run: &rundir.Run{Info: full, Log: res.Log, Monitoring: mon}}
}

var (
	fixtureOnce sync.Once
	fixture     *simRun
)

// sharedRun is the simulated run every run-directory test replays.
func sharedRun(t *testing.T) *simRun {
	fixtureOnce.Do(func() { fixture = simulate(t, nil) })
	if fixture == nil {
		t.Fatal("simulating the shared run failed")
	}
	return fixture
}

// batchReport is the batch path as cmd/grade10 runs it on the same run.
func batchReport(t *testing.T, run *rundir.Run, parallelism int) []byte {
	t.Helper()
	models, err := grade10.ModelsForEngine(run.Info.Engine, grade10.ModelParams{
		Job: run.Info.Job, Cores: run.Info.Cores, NetBandwidth: run.Info.NetBandwidth,
		DiskBandwidth: run.Info.DiskBandwidth, ThreadsPerWorker: run.Info.ThreadsPerWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := grade10.Characterize(grade10.Input{
		Log: run.Log, Monitoring: run.Monitoring, Models: models, Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// get serves one request through the service's HTTP surface.
func get(s *Service, path string) (int, string) {
	rec := httptest.NewRecorder()
	s.http.Handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testConfig(parallelism int, idle time.Duration) Config {
	return Config{
		Addr: "127.0.0.1:0",
		Fleet: fleet.Config{
			Poll: 2 * time.Millisecond, Idle: idle, Parallelism: parallelism, Explain: true,
		},
		UI:              true,
		ShutdownTimeout: 3 * time.Second,
	}
}

// TestServiceDripReportMatchesBatch drives the single-run service the way a
// job in progress feeds it: a partial log and some monitoring rows land
// before run.json exists, then the rest arrives. The aliases answer 503
// while the metadata is missing, and the final /report is byte-identical to
// the batch report at every parallelism.
func TestServiceDripReportMatchesBatch(t *testing.T) {
	sim := sharedRun(t)
	src := t.TempDir()
	if err := rundir.Save(src, sim.run); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	logData, monData, infoData := read("execution.log"), read("monitoring.csv"), read("run.json")
	cut := func(b []byte) int { return bytes.IndexByte(b[len(b)/2:], '\n') + len(b)/2 + 1 }
	logCut, monCut := cut(logData), cut(monData)
	rules, err := alert.ParseRules(strings.NewReader("alert moving severity info when windows_flushed >= 1\n"))
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "drip")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(name string, b []byte) {
			f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		write("execution.log", logData[:logCut])
		write("monitoring.csv", monData[:monCut])

		// Alerting and bundle capture ride along: wall-clock diagnostics
		// must not perturb the exact report.
		cfg := testConfig(par, 2*time.Second)
		cfg.Rules = rules
		cfg.Bundles = flight.Config{Dir: t.TempDir(), CPUProfile: -1}
		s, err := Start(cfg, &fleet.Source{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if code, body := get(s, "/report"); code != http.StatusServiceUnavailable || !strings.Contains(body, "run.json") {
			t.Fatalf("p=%d /report before run.json: %d %q", par, code, body)
		}
		if code, _ := get(s, "/healthz"); code != http.StatusOK {
			t.Fatalf("p=%d /healthz before run.json: %d", par, code)
		}
		write("run.json", infoData)
		waitFor(t, "the engine", func() bool { code, _ := get(s, "/profile"); return code == http.StatusOK })
		if code, _ := get(s, "/report"); code != http.StatusServiceUnavailable {
			t.Fatalf("p=%d /report mid-run: %d, want 503", par, code)
		}
		write("execution.log", logData[logCut:])
		write("monitoring.csv", monData[monCut:])
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		code, body := get(s, "/report")
		if code != http.StatusOK {
			t.Fatalf("p=%d /report after the run: %d %s", par, code, body)
		}
		if want := batchReport(t, sim.run, par); body != string(want) {
			t.Fatalf("p=%d: live /report differs from the batch report", par)
		}
		// The alias engine outlives finalize: the UI still answers from it.
		if code, _ := get(s, "/api/heatmap"); code != http.StatusOK {
			t.Fatalf("p=%d /api/heatmap after the run: %d", par, code)
		}
		if code, body := get(s, "/alerts"); code != http.StatusOK || !strings.Contains(body, `"firing": 1`) {
			t.Fatalf("p=%d /alerts: %d %s", par, code, body)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceTapReportMatchesBatch feeds the single-run service from an
// in-process simulation through a Tap, as runsim -serve does, and checks
// the final /report against the batch report of the same run at every
// parallelism.
func TestServiceTapReportMatchesBatch(t *testing.T) {
	info := sharedRun(t).info
	for _, par := range []int{1, 4} {
		tap := NewTap(info)
		s, err := Start(testConfig(par, time.Second), &fleet.Source{Dir: "tapped", Feed: tap.Feed})
		if err != nil {
			t.Fatal(err)
		}
		sim := simulate(t, tap.Send)
		tap.Finish(sim.monitoring)
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		code, body := get(s, "/report")
		if code != http.StatusOK {
			t.Fatalf("p=%d /report: %d %s", par, code, body)
		}
		if want := batchReport(t, sim.run, par); body != string(want) {
			t.Fatalf("p=%d: tapped /report differs from the batch report", par)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceShutdownEndsSSE: an open /api/events stream must not hold
// shutdown for the HTTP drain budget — the broker ends SSE streams before
// HTTP shuts down.
func TestServiceShutdownEndsSSE(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "done")
	if err := rundir.Save(dir, sharedRun(t).run); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, 10*time.Millisecond)
	cfg.ShutdownTimeout = 5 * time.Second
	s, err := Start(cfg, &fleet.Source{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "event: hello") {
		t.Fatalf("first SSE line %q, %v", line, err)
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with an SSE subscriber attached (budget %v)", took, cfg.ShutdownTimeout)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("SSE stream did not end cleanly: %v", err)
	}
}

// TestServiceSingleRunStall: -stall-timeout applies to the single run too —
// a run directory that never produces run.json ends the run as stalled.
func TestServiceSingleRunStall(t *testing.T) {
	cfg := testConfig(1, time.Second)
	cfg.Fleet.StallTimeout = 30 * time.Millisecond
	s, err := Start(cfg, &fleet.Source{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Wait(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("Wait = %v, want the run stalled", err)
	}
}
