package infer

import (
	"math"
	"reflect"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/metrics"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

// Synthetic ground truth: two phase types with known per-instance demands
// (3 and 1 units); the fit must recover them.
func TestInferRecoversKnownCoefficients(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("heavy", true)
	root.Child("light", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}

	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	emit := func(t0, t1 vtime.Time, path string) {
		now = t0
		l.StartPhase(path, -1)
		now = t1
		l.EndPhase(path)
	}
	now = at(0)
	l.StartPhase("/job", -1)
	// heavy alone [0,2), light alone [2,4), both [4,6).
	emit(at(0), at(2), "/job/heavy.0")
	emit(at(2), at(4), "/job/light.0")
	emit(at(4), at(6), "/job/heavy.1")
	emit(at(4), at(6), "/job/light.1")
	now = at(6)
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	// Consumption: 3 per heavy, 1 per light.
	truth := metrics.FromSteps(
		metrics.Point{T: at(0), V: 3},
		metrics.Point{T: at(2), V: 1},
		metrics.Point{T: at(4), V: 4},
		metrics.Point{T: at(6), V: 0},
	)
	samples := metrics.SampleSeriesOf(truth, at(0), at(6), 500*vtime.Millisecond)

	res, err := InferRules(tr, "cpu", map[int]*metrics.SampleSeries{
		core.GlobalMachine: samples,
	}, Options{Timeslice: 500 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Amount("/job/heavy"); math.Abs(h-3) > 0.05 {
		t.Fatalf("heavy coefficient %v, want 3", h)
	}
	if lgt := res.Amount("/job/light"); math.Abs(lgt-1) > 0.05 {
		t.Fatalf("light coefficient %v, want 1", lgt)
	}

	rules := res.RuleSet(Options{})
	if r := rules.Get("/job/heavy", "cpu"); r.Kind != core.RuleExact {
		t.Fatalf("heavy rule %+v", r)
	}
}

// The §V headline: inferring the Giraph compute-thread rule from a real run
// recovers "one active thread uses about one core" without any expert input.
func TestInferGiraphThreadRule(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 4
	cfg.OSNoiseCores = 0 // fit against clean ground truth
	g := graph.RMAT(11, 8, 42)
	part := graph.HashPartition(g, cfg.Workers)
	run, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 5), part, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build the model only to parse the log (the rules are what we infer).
	models, err := giraphModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.BuildExecutionTrace(run.Log, models)
	if err != nil {
		t.Fatal(err)
	}

	monitoring := map[int]*metrics.SampleSeries{}
	for m := 0; m < cfg.Workers; m++ {
		truth, err := run.Cluster.GroundTruth(m, cluster.ResCPU)
		if err != nil {
			t.Fatal(err)
		}
		monitoring[m] = metrics.SampleSeriesOf(truth, run.Start, run.End, 10*vtime.Millisecond)
	}

	res, err := InferRules(tr, cluster.ResCPU, monitoring,
		Options{Timeslice: 10 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	thread := res.Amount("/pagerank/execute/superstep/worker/compute/thread")
	if thread < 0.6 || thread > 1.4 {
		t.Fatalf("inferred thread demand %v cores, expected ≈1", thread)
	}
	// The barrier consumes nothing; its coefficient must be far below the
	// thread's.
	barrier := res.Amount("/pagerank/execute/superstep/worker/barrier")
	if barrier > 0.3*thread {
		t.Fatalf("barrier coefficient %v not negligible vs thread %v", barrier, thread)
	}
}

func giraphModels(cfg giraphsim.Config) (*core.ExecutionModel, error) {
	root := core.NewRootType("pagerank")
	root.Child("load", false).Child("worker", true)
	exec := root.Child("execute", false, "load")
	ss := exec.Child("superstep", true)
	ss.Sequential = true
	worker := ss.Child("worker", true)
	worker.Child("prepare", false)
	worker.Child("compute", false, "prepare").Child("thread", true)
	worker.Child("communicate", false, "prepare")
	worker.Child("barrier", false, "compute", "communicate")
	root.Child("write", false, "execute").Child("worker", true)
	return core.NewExecutionModel(root)
}

func TestInferValidation(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("a", false)
	model, _ := core.NewExecutionModel(root)
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/a", -1)
	now = at(1)
	l.EndPhase("/job/a")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferRules(tr, "cpu", nil, Options{}); err == nil {
		t.Fatal("no monitoring accepted")
	}
}

func TestInferDeterministic(t *testing.T) {
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = 4
	cfg.ThreadsPerWorker = 2
	g := graph.RMAT(10, 8, 7)
	run, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 3), graph.HashPartition(g, cfg.Workers), cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := giraphModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.BuildExecutionTrace(run.Log, models)
	if err != nil {
		t.Fatal(err)
	}
	monitoring := map[int]*metrics.SampleSeries{}
	for m := 0; m < cfg.Workers; m++ {
		truth, err := run.Cluster.GroundTruth(m, cluster.ResCPU)
		if err != nil {
			t.Fatal(err)
		}
		monitoring[m] = metrics.SampleSeriesOf(truth, run.Start, run.End, 10*vtime.Millisecond)
	}
	opts := Options{Timeslice: 10 * vtime.Millisecond}
	first, err := InferRules(tr, cluster.ResCPU, monitoring, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := InferRules(tr, cluster.ResCPU, monitoring, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d: fit differs from the first run:\n%+v\n%+v", i, res, first)
		}
	}
}
