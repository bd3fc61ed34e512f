package grade10_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline exercises the full file-based pipeline of the paper's
// Figure 1 through the real binaries: gengraph → runsim → grade10, plus the
// model dump/load round trip. It is the integration test for the cmd/ layer.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"gengraph", "runsim", "grade10", "infer"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	graphFile := filepath.Join(dir, "g.el")
	out := run("gengraph", "-type", "rmat", "-scale", "10", "-edgefactor", "8",
		"-seed", "3", "-out", graphFile)
	if !strings.Contains(out, "vertices") {
		t.Fatalf("gengraph output: %s", out)
	}
	if _, err := os.Stat(graphFile); err != nil {
		t.Fatal(err)
	}

	runDir := filepath.Join(dir, "run")
	out = run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-graph", graphFile, "-workers", "2", "-threads", "4", "-out", runDir)
	if !strings.Contains(out, "makespan") {
		t.Fatalf("runsim output: %s", out)
	}
	for _, f := range []string{"run.json", "execution.log", "monitoring.csv"} {
		if _, err := os.Stat(filepath.Join(runDir, f)); err != nil {
			t.Fatalf("run dir missing %s: %v", f, err)
		}
	}

	modelsFile := filepath.Join(dir, "models.json")
	report := run("grade10", "-run", runDir, "-dump-models", modelsFile)
	for _, want := range []string{
		"execution span:", "PHASE TYPE", "bottlenecks",
		"performance issues", "replayed critical path",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("grade10 report missing %q:\n%s", want, report)
		}
	}
	if _, err := os.Stat(modelsFile); err != nil {
		t.Fatal(err)
	}

	// Re-analysis with the dumped models matches the built-in analysis
	// (ignoring stderr diagnostics like "grade10: wrote ..." and the
	// wall-clock decode-throughput footer line, which is host-dependent).
	stripDiag := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "grade10: ") || strings.HasPrefix(line, "  decoded ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	// stripFooter additionally drops the parse-stats footer, which names the
	// input format — the only line allowed to differ between a text and a
	// binary ingest of the same run.
	stripFooter := func(s string) string {
		var keep []string
		for _, line := range strings.Split(stripDiag(s), "\n") {
			if strings.HasPrefix(line, "log parse: ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	report2 := run("grade10", "-run", runDir, "-models", modelsFile)
	if stripDiag(report2) != stripDiag(report) {
		t.Fatal("analysis with dumped models differs from built-ins")
	}

	// Serial and parallel analysis produce byte-identical reports: the
	// worker-pool fan-out merges in deterministic order.
	serialRep := run("grade10", "-run", runDir, "-parallelism", "1")
	parallelRep := run("grade10", "-run", runDir, "-parallelism", "8")
	if stripDiag(serialRep) != stripDiag(parallelRep) {
		t.Fatal("-parallelism 8 report differs from -parallelism 1")
	}
	if stripDiag(serialRep) != stripDiag(report) {
		t.Fatal("-parallelism 1 report differs from the default analysis")
	}

	// Untuned analysis differs (fewer blocking events, no Exact rules).
	untuned := run("grade10", "-run", runDir, "-untuned")
	if untuned == report {
		t.Fatal("untuned analysis identical to tuned")
	}

	// Binary enginelog: converting the run directory, analyzing the binary
	// copy, and converting back must (a) produce the identical report modulo
	// the input-format footer and (b) reproduce the original text log byte
	// for byte.
	binDir := filepath.Join(dir, "run-bin")
	run("grade10", "-convert", runDir, "-o", binDir)
	rawBin, err := os.ReadFile(filepath.Join(binDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rawBin), "G10B") {
		t.Fatalf("converted execution.log lacks binary magic: %.8q", rawBin)
	}
	binRep := run("grade10", "-run", binDir)
	if !strings.Contains(binRep, "log parse: binary format") {
		t.Fatalf("binary run footer missing format:\n%s", binRep)
	}
	if !strings.Contains(report, "log parse: text format") {
		t.Fatalf("text run footer missing format:\n%s", report)
	}
	if stripFooter(binRep) != stripFooter(report) {
		t.Fatal("binary-ingested report differs from text-ingested report")
	}
	backDir := filepath.Join(dir, "run-back")
	run("grade10", "-convert", binDir, "-o", backDir)
	origLog, err := os.ReadFile(filepath.Join(runDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	backLog, err := os.ReadFile(filepath.Join(backDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(origLog) != string(backLog) {
		t.Fatal("text → binary → text round trip not byte-identical")
	}

	// runsim -binary-log writes the binary format directly; the deterministic
	// simulation reproduces the same run, so the report matches too.
	blDir := filepath.Join(dir, "run-binarylog")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-graph", graphFile, "-workers", "2", "-threads", "4", "-binary-log", "-out", blDir)
	rawBL, err := os.ReadFile(filepath.Join(blDir, "execution.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rawBL), "G10B") {
		t.Fatal("runsim -binary-log did not write binary execution.log")
	}
	if stripFooter(run("grade10", "-run", blDir)) != stripFooter(report) {
		t.Fatal("-binary-log run report differs from text run report")
	}

	// Rule inference produces a models file the analyzer accepts.
	inferredFile := filepath.Join(dir, "inferred.json")
	fitOut := run("infer", "-run", runDir, "-out", inferredFile)
	if !strings.Contains(fitOut, "INFERRED DEMAND") {
		t.Fatalf("infer output: %s", fitOut)
	}
	run("grade10", "-run", runDir, "-models", inferredFile)

	// PowerGraph path and CSV export work too.
	pgDir := filepath.Join(dir, "pgrun")
	run("runsim", "-engine", "powergraph", "-algorithm", "cdlp",
		"-dataset", "datagen", "-workers", "2", "-threads", "4", "-bug", "-out", pgDir)
	csvFile := filepath.Join(dir, "consumption.csv")
	run("grade10", "-run", pgDir, "-csv", csvFile)
	data, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slice,start_ns,") {
		t.Fatalf("csv header: %.60s", data)
	}

	// Archive + diff: run the same compute-heavy workload twice — once at the
	// engine's default background noise, once with heavy injected CPU noise
	// (cluster.Noise via -noise) — archive both analyses, and the diff must
	// flag the regression and localize it to the compute leaf × cpu. The
	// built-in rmat dataset with default threads keeps compute a large enough
	// share of the makespan that CPU contention moves the verdict.
	diffBaseDir := filepath.Join(dir, "run-diffbase")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-workers", "2", "-out", diffBaseDir)
	noisyDir := filepath.Join(dir, "run-noisy")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank",
		"-workers", "2", "-noise", "7.5", "-out", noisyDir)
	storeDir := filepath.Join(dir, "profiles")
	archOut := run("grade10", "-run", diffBaseDir, "-store", storeDir, "-run-label", "baseline")
	if !strings.Contains(archOut, "archived run ") {
		t.Fatalf("no archive confirmation:\n%s", archOut)
	}
	run("grade10", "-run", noisyDir, "-store", storeDir, "-run-label", "noisy")

	idOf := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "archived run ") {
				return strings.Fields(line)[2]
			}
		}
		t.Fatalf("no archived run line in:\n%s", out)
		return ""
	}
	baseID := idOf(archOut)
	// Re-archiving the same run is idempotent: same content ID, no new entry.
	noisyID := idOf(run("grade10", "-run", noisyDir, "-store", storeDir, "-run-label", "noisy"))

	deltaFile := filepath.Join(dir, "delta.json")
	diffText := run("grade10", "-store", storeDir, "-diff-out", deltaFile,
		"-diff", baseID, noisyID)
	for _, want := range []string{
		"verdict: REGRESSED",
		"top regression: ", "/compute/thread × cpu",
	} {
		if !strings.Contains(diffText, want) {
			t.Fatalf("diff text missing %q:\n%s", want, diffText)
		}
	}
	delta, err := os.ReadFile(deltaFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"verdict": "regressed"`, `"resource": "cpu"`, "/compute/thread",
	} {
		if !strings.Contains(string(delta), want) {
			t.Fatalf("delta JSON missing %q", want)
		}
	}

	// Diff output is byte-identical regardless of prefix resolution, and
	// -fail-on-regress flips the exit status to 3.
	diffText2 := run("grade10", "-store", storeDir, "-diff", baseID[:6], noisyID[:6])
	if stripDiag(diffText2) != stripDiag(diffText) {
		t.Fatal("diff by prefix differs from diff by full ID")
	}
	cmd := exec.Command(bin("grade10"), "-store", storeDir, "-fail-on-regress",
		"-diff", baseID, noisyID)
	if err := cmd.Run(); err == nil {
		t.Fatal("-fail-on-regress exited 0 on a regression")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("-fail-on-regress exit: %v, want status 3", err)
	}
}

// TestCLIArchiveCrossCommand: every command reads and writes one archive.
// serve -fleet creates a four-shard archive and archives a run; grade10
// -diff resolves that run's ID; grade10 -store appends a second run to the
// same archive; and a reopened serve -fleet diffs the two. No command
// writes a root index.json beside the shards.
func TestCLIArchiveCrossCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"runsim", "grade10", "serve"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	stage := filepath.Join(dir, "stage")
	runA, runB := filepath.Join(stage, "quiet"), filepath.Join(dir, "noisy")
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank", "-workers", "2", "-out", runA)
	run("runsim", "-engine", "giraph", "-algorithm", "pagerank", "-workers", "2",
		"-noise", "7.5", "-out", runB)
	archive := filepath.Join(dir, "archive")

	// serveFleet starts serve -fleet over a fresh watch dir and returns its
	// base URL, the watch dir, and a stop function that interrupts it.
	serveFleet := func(name string) (string, string, func()) {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		watch := filepath.Join(dir, name)
		if err := os.MkdirAll(watch, 0o755); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		cmd := exec.Command(bin("serve"), "-fleet", watch, "-addr", addr,
			"-store", archive, "-store-shards", "4")
		cmd.Stdout, cmd.Stderr = &log, &log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		stopped := false
		stop := func() {
			if stopped {
				return
			}
			stopped = true
			_ = cmd.Process.Signal(os.Interrupt)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				<-done
				t.Errorf("serve did not stop on interrupt:\n%s", log.String())
			}
		}
		t.Cleanup(stop)
		base := "http://" + addr
		for i := 0; ; i++ {
			resp, err := http.Get(base + "/fleet/runs")
			if err == nil {
				resp.Body.Close()
				break
			}
			if i == 100 {
				stop()
				t.Fatalf("serve never came up: %v\n%s", err, log.String())
			}
			time.Sleep(100 * time.Millisecond)
		}
		return base, watch, stop
	}

	// 1. serve -fleet archives run A into a new four-shard archive.
	base, watch, stop := serveFleet("watch-1")
	if err := os.Rename(runA, filepath.Join(watch, "quiet")); err != nil {
		t.Fatal(err)
	}
	var idA string
	for i := 0; idA == "" && i < 200; i++ {
		time.Sleep(100 * time.Millisecond)
		resp, err := http.Get(base + "/fleet/runs")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Runs []struct {
				Status    string `json:"status"`
				ArchiveID string `json:"archive_id"`
			} `json:"runs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Runs) == 1 && snap.Runs[0].Status == "done" {
			idA = snap.Runs[0].ArchiveID
		}
	}
	stop()
	if idA == "" {
		t.Fatal("serve -fleet never archived the run")
	}

	// 2. grade10 -diff resolves the ID serve archived.
	if out := run("grade10", "-store", archive, "-diff", idA, idA); !strings.Contains(out, "verdict:") {
		t.Fatalf("grade10 -diff of the served run:\n%s", out)
	}

	// 3. grade10 -store appends to the same archive.
	out := run("grade10", "-run", runB, "-store", archive, "-run-label", "noisy")
	var idB string
	var stored int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "archived run ") {
			if _, err := fmt.Sscanf(line, "archived run %s (%d runs stored)", &idB, &stored); err != nil {
				t.Fatalf("archive line %q: %v", line, err)
			}
		}
	}
	if idB == "" || idB == idA || stored != 2 {
		t.Fatalf("grade10 -store archived %q with %d runs stored, want a second run:\n%s", idB, stored, out)
	}

	// 4. A reopened serve -fleet sees both records.
	base, _, stop = serveFleet("watch-2")
	resp, err := http.Get(base + "/diff?format=text&a=" + idA + "&b=" + idB)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	stop()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "verdict:") {
		t.Fatalf("reopened serve /diff %s %s: %d\n%s", idA, idB, resp.StatusCode, body)
	}
	if out := run("grade10", "-store", archive, "-diff", idA, idB); !strings.Contains(out, "verdict:") {
		t.Fatalf("grade10 -diff of both runs:\n%s", out)
	}

	if _, err := os.Stat(filepath.Join(archive, "index.json")); !os.IsNotExist(err) {
		t.Fatalf("a command wrote a root index.json beside the shards (err=%v)", err)
	}
	layout, err := os.ReadFile(filepath.Join(archive, "shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(layout), `"shards": 4`) {
		t.Fatalf("shards.json does not record four shards:\n%s", layout)
	}
}

// TestCLIServeModeFlags: serve -run and serve -fleet are one service, so
// -pprof mounts in fleet mode too; a flag the chosen mode does not use is a
// usage error (exit 2), not a silent no-op.
func TestCLIServeModeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	serve := filepath.Join(dir, "serve")
	if out, err := exec.Command("go", "build", "-o", serve, "./cmd/serve").CombinedOutput(); err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-fleet", dir, "-run-label", "x"},
		{"-run", dir, "-fleet-active", "2"},
		{"-run", dir, "-fleet-queue", "2"},
		{"-run", dir, "-bounded"},
		{"-run", dir, "-fleet", dir},
	} {
		out, err := exec.Command(serve, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("serve %v: %v, want exit 2\n%s", args, err, out)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var log bytes.Buffer
	cmd := exec.Command(serve, "-fleet", dir, "-addr", addr, "-pprof")
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait()
	}()
	var body bytes.Buffer
	for i := 0; ; i++ {
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err == nil {
			body.Reset()
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("serve -fleet -pprof: /debug/pprof/ = %s\n%s", resp.Status, log.String())
			}
			break
		}
		if i == 100 {
			t.Fatalf("serve never came up: %v\n%s", err, log.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !strings.Contains(body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ index without profiles:\n%s", body.String())
	}
}
