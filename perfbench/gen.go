package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"grade10/internal/cluster"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/pgsim"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// source is one generated run directory: PageRank on the R-MAT graph,
// simulated on one engine at one worker count.
type source struct {
	name    string
	engine  string
	workers int
}

var (
	giraph16     = source{"giraph16", "giraph", 16}
	powergraph16 = source{"powergraph16", "powergraph", 16}
	giraph64     = source{"giraph64", "giraph", 64}
)

// workloads maps each workload to the run dirs it is fed. Why each exists
// is recorded in doc.go.
var workloads = map[string][]source{
	"batch-giraph":     {giraph16},
	"batch-powergraph": {powergraph16},
	"fleet-mixed":      {giraph16, powergraph16, giraph64},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"batch-giraph", "batch-powergraph", "fleet-mixed"}

const (
	// defaultScale is the R-MAT scale (2^17 vertices, edge factor 16) the
	// workloads are defined at; tests shrink it.
	defaultScale = 17
	// setupReps is how many times a run generates its inputs; setup_s is
	// the median.
	setupReps = 3
)

// generate writes every source run dir of a workload under out, from the
// R-MAT graph drawn with the given seed. Sources are simulated concurrently
// on at most nproc goroutines.
func generate(sources []source, scale int, seed int64, out string, nproc int) error {
	g := graph.RMAT(scale, 16, seed)
	sem := make(chan struct{}, nproc)
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src source) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = simulate(g, src, filepath.Join(out, src.name))
		}(i, src)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simulate runs PageRank on one engine the way cmd/runsim does and saves
// the run dir with a text execution log.
func simulate(g *graph.Graph, src source, dir string) error {
	prog, err := workload.NewProgram("pagerank", g)
	if err != nil {
		return err
	}
	const monInterval = 50 * vtime.Millisecond
	run := &rundir.Run{}
	var m cluster.MachineSpec
	var threads int
	var c *cluster.Cluster
	var start, end vtime.Time
	switch src.engine {
	case "giraph":
		cfg := experiments.GiraphConfig(1)
		cfg.Workers = src.workers
		res, err := giraphsim.Run(prog, graph.HashPartition(g, cfg.Workers), cfg)
		if err != nil {
			return err
		}
		run.Log, c, start, end = res.Log, res.Cluster, res.Start, res.End
		m, threads = cfg.Machine, cfg.ThreadsPerWorker
	case "powergraph":
		cfg := experiments.PowerGraphConfig(1, false)
		cfg.Workers = src.workers
		res, err := pgsim.Run(prog, cfg)
		if err != nil {
			return err
		}
		run.Log, c, start, end = res.Log, res.Cluster, res.Start, res.End
		m, threads = cfg.Machine, cfg.ThreadsPerWorker
	default:
		return fmt.Errorf("unknown engine %q", src.engine)
	}
	run.Monitoring, err = cluster.Monitor(c, start, end, monInterval)
	if err != nil {
		return err
	}
	run.Info = rundir.Info{
		Engine: src.engine, Job: prog.Name(), Workers: src.workers,
		ThreadsPerWorker: threads, Cores: m.Cores,
		NetBandwidth: m.NetBandwidth, DiskBandwidth: m.DiskBandwidth,
		StartNS: int64(start), EndNS: int64(end),
	}
	return rundir.Save(dir, run)
}

// setup generates the workload's inputs setupReps times, each in a child
// process so the generator's memory never counts toward the measured
// process, and returns the first copy's run dirs and every duration. The
// copies must be byte-identical: the same seed gives the same inputs.
func setup(name string, scale int, seed int64, work string) (dirs []string, secs []float64, err error) {
	sources := workloads[name]
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var first []byte
	for k := 0; k < setupReps; k++ {
		out := filepath.Join(work, fmt.Sprintf("inputs-%d", k))
		if err := os.RemoveAll(out); err != nil {
			return nil, nil, err
		}
		cmd := exec.Command(self, "-gen", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-scale", strconv.Itoa(scale), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("generating inputs: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		digest, err := digestDirs(out, sources)
		if err != nil {
			return nil, nil, err
		}
		if k == 0 {
			first = digest
		} else if !bytes.Equal(digest, first) {
			return nil, nil, fmt.Errorf("inputs for seed %d differ between generations", seed)
		}
	}
	for _, src := range sources {
		dirs = append(dirs, filepath.Join(work, "inputs-0", src.name))
	}
	for k := 1; k < setupReps; k++ {
		if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("inputs-%d", k))); err != nil {
			return nil, nil, err
		}
	}
	return dirs, secs, nil
}

// digestDirs hashes every file of every source run dir.
func digestDirs(out string, sources []source) ([]byte, error) {
	h := sha256.New()
	for _, src := range sources {
		for _, f := range []string{"run.json", "execution.log", "monitoring.csv"} {
			fh, err := os.Open(filepath.Join(out, src.name, f))
			if err != nil {
				return nil, err
			}
			_, err = io.Copy(h, fh)
			fh.Close()
			if err != nil {
				return nil, err
			}
		}
	}
	return h.Sum(nil), nil
}

// fingerprint is the shape of one input run: what the layers are given and
// what the trace build makes of it.
type fingerprint struct {
	Events          int64
	Leaves          int64
	Slices          int64
	Blocked         int64
	MonitoringRows  int64
	LogBytes        int64
	MonitoringBytes int64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("events=%d leaves=%d slices=%d blocked_intervals=%d monitoring_rows=%d log_bytes=%d monitoring_bytes=%d",
		f.Events, f.Leaves, f.Slices, f.Blocked, f.MonitoringRows, f.LogBytes, f.MonitoringBytes)
}

// band is the inclusive range a fingerprint field must fall in for every
// seed at the default scale: the range seen over seeds 1-6, widened by
// about 5%. The ranges pin each source's character — giraph16 is
// blocking-heavy, powergraph16 is not but has more leaves, slices and
// monitoring — so a change to the generators or simulators cannot shift a
// workload silently.
type band struct{ lo, hi int64 }

var fingerprintBands = map[string]map[string]band{
	"giraph16": {
		"events": {13500, 15200}, "leaves": {1440, 1440}, "slices": {470, 530},
		"blocked_intervals": {10300, 11600}, "monitoring_rows": {6000, 6900},
		"log_bytes": {1080000, 1210000}, "monitoring_bytes": {290000, 325000},
	},
	"powergraph16": {
		"events": {8200, 8600}, "leaves": {3488, 3488}, "slices": {930, 1080},
		"blocked_intervals": {330, 390}, "monitoring_rows": {12000, 13700},
		"log_bytes": {545000, 590000}, "monitoring_bytes": {530000, 615000},
	},
	"giraph64": {
		"events": {24800, 26600}, "leaves": {5760, 5760}, "slices": {220, 246},
		"blocked_intervals": {11500, 12800}, "monitoring_rows": {11700, 12400},
		"log_bytes": {1850000, 1990000}, "monitoring_bytes": {540000, 580000},
	},
}

// checkFingerprint reports every field of fp outside its band for src.
func checkFingerprint(src source, fp fingerprint) []string {
	fields := []struct {
		name  string
		value int64
	}{
		{"events", fp.Events}, {"leaves", fp.Leaves}, {"slices", fp.Slices},
		{"blocked_intervals", fp.Blocked}, {"monitoring_rows", fp.MonitoringRows},
		{"log_bytes", fp.LogBytes}, {"monitoring_bytes", fp.MonitoringBytes},
	}
	var bad []string
	for _, f := range fields {
		if b, ok := fingerprintBands[src.name][f.name]; ok && (f.value < b.lo || f.value > b.hi) {
			bad = append(bad, fmt.Sprintf("%s %s=%d outside [%d, %d]", src.name, f.name, f.value, b.lo, b.hi))
		}
	}
	return bad
}
