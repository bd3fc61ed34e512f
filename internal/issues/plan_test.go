package issues

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/metrics"
	"grade10/internal/pgsim"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

// randomModel draws an execution model 1–4 type levels deep with After
// DAGs among siblings and Sequential, SyncGroup and ElasticWaits types. A
// type is never both Sequential and SyncGroup: its instances would wait
// for each other (the plan rejects that cycle).
func randomModel(t *testing.T, rng *rand.Rand) *core.ExecutionModel {
	t.Helper()
	root := core.NewRootType("app")
	depth := 1 + rng.Intn(4)
	var grow func(pt *core.PhaseType, level int)
	grow = func(pt *core.PhaseType, level int) {
		var names []string
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			name := fmt.Sprintf("t%d", i)
			var after []string
			for _, prev := range names {
				if rng.Intn(3) == 0 {
					after = append(after, prev)
				}
			}
			c := pt.Child(name, rng.Intn(2) == 0, after...)
			switch rng.Intn(6) {
			case 0, 1:
				c.Sequential = c.Repeated
			case 2:
				c.SyncGroup = true
			case 3:
				c.ElasticWaits = true
			case 4:
				c.SyncGroup, c.ElasticWaits = true, true
			}
			names = append(names, name)
			if level < depth && rng.Intn(4) > 0 {
				grow(c, level+1)
			}
		}
	}
	grow(root, 1)
	m, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomTrace logs one execution of m: instances start at random offsets
// (so Sequential indices are out of start order), some repeated types get
// an instance repeating an index ("t0.01" beside "t0.1") or without one
// ("t0.x"), leaves run 0–4 s in 250 ms steps, and phases carry random,
// sometimes whole-phase, blocking.
func randomTrace(t *testing.T, rng *rand.Rand, m *core.ExecutionModel) *core.ExecutionTrace {
	t.Helper()
	ms := func(n int) vtime.Duration { return vtime.Duration(n) * vtime.Millisecond }
	var events []enginelog.Event
	var emit func(pt *core.PhaseType, path string, start vtime.Time) vtime.Time
	emit = func(pt *core.PhaseType, path string, start vtime.Time) vtime.Time {
		events = append(events, enginelog.Event{Kind: enginelog.PhaseStart, Time: start, Path: path, Machine: rng.Intn(3) - 1})
		end := start
		if pt.IsLeaf() {
			end = start.Add(ms(250 * rng.Intn(17)))
		}
		for _, c := range pt.Children() {
			count := 1
			if c.Repeated {
				count = 1 + rng.Intn(3)
			} else if rng.Intn(8) == 0 {
				continue // an optional phase that did not run
			}
			labels := []string{""}
			if c.Repeated {
				labels = labels[:0]
				for _, idx := range rng.Perm(count) {
					labels = append(labels, fmt.Sprint(idx))
				}
				switch rng.Intn(8) {
				case 0: // a second instance with an existing index
					labels = append(labels, fmt.Sprintf("0%d", rng.Intn(count)))
				case 1: // an instance without an index
					labels = append(labels, "x")
				}
			}
			for _, label := range labels {
				cp := path + "/" + c.Name
				if label != "" {
					cp += "." + label
				}
				end = vtime.Max(end, emit(c, cp, start.Add(ms(100*rng.Intn(30)))))
			}
		}
		end = end.Add(ms(100 * rng.Intn(3)))
		for b := rng.Intn(3); b > 0; b-- {
			bs := start.Add(vtime.Duration(rng.Int63n(int64(end.Sub(start)) + 1)))
			be := bs.Add(vtime.Duration(rng.Int63n(int64(end.Sub(bs)) + 1)))
			if rng.Intn(4) == 0 {
				bs, be = start, end
			}
			events = append(events, enginelog.Event{Kind: enginelog.Blocked, Time: bs, End: be, Path: path,
				Resource: []string{"gc", "net"}[rng.Intn(2)]})
		}
		events = append(events, enginelog.Event{Kind: enginelog.PhaseEnd, Time: end, Path: path})
		return end
	}
	emit(m.Root, "/app", 0)
	tr, err := core.BuildExecutionTrace(&enginelog.Log{Events: events}, m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomDurations is nil a quarter of the time. Otherwise it overrides
// phases, leaves or not: a random third of them with durations from −1.5 s
// to 2.5 s, zero included, or, for ties everywhere, all of them with 0 or
// 1 s.
func randomDurations(rng *rand.Rand, tr *core.ExecutionTrace) Durations {
	durs := Durations{}
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		tr.Root.Walk(func(p *core.Phase) { durs[p] = vtime.Duration(rng.Intn(2)) * vtime.Second })
	default:
		tr.Root.Walk(func(p *core.Phase) {
			if rng.Intn(3) == 0 {
				durs[p] = vtime.Duration(rng.Intn(9)-3) * 500 * vtime.Millisecond
			}
		})
	}
	return durs
}

// engineRun is a simulated engine run parsed with the engine's model.
type engineRun struct {
	tr         *core.ExecutionTrace
	cluster    *cluster.Cluster
	start, end vtime.Time
}

// engineRuns simulates small Giraph and PowerGraph PageRank runs.
func engineRuns(t *testing.T) []engineRun {
	t.Helper()
	g := graph.RMAT(9, 8, 42)

	groot := core.NewRootType("pagerank")
	groot.Child("load", false).Child("worker", true)
	gexec := groot.Child("execute", false, "load")
	ss := gexec.Child("superstep", true)
	ss.Sequential = true
	gw := ss.Child("worker", true)
	gw.Child("prepare", false)
	gw.Child("compute", false, "prepare").Child("thread", true)
	gw.Child("communicate", false, "prepare").ElasticWaits = true
	gw.Child("barrier", false, "compute", "communicate").SyncGroup = true
	groot.Child("write", false, "execute").Child("worker", true)

	proot := core.NewRootType("pagerank")
	proot.Child("load", false).Child("worker", true)
	pexec := proot.Child("execute", false, "load")
	it := pexec.Child("iteration", true)
	it.Sequential = true
	pw := it.Child("worker", true)
	pw.Child("gather", false).Child("thread", true)
	pw.Child("exchange", false, "gather").SyncGroup = true
	pw.Child("apply", false, "exchange").Child("thread", true)
	pw.Child("sync", false, "apply").SyncGroup = true
	pw.Child("scatter", false, "sync").Child("thread", true)
	pw.Child("barrier", false, "scatter").SyncGroup = true
	proot.Child("write", false, "execute").Child("worker", true)

	gcfg := giraphsim.DefaultConfig()
	gcfg.Workers, gcfg.ThreadsPerWorker = 4, 2
	grun, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 3), graph.HashPartition(g, gcfg.Workers), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := pgsim.DefaultConfig()
	pcfg.ThreadsPerWorker = 2
	prun, err := pgsim.Run(vertexprog.NewPageRank(g, 0.85, 3), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []engineRun
	for _, run := range []struct {
		log  *enginelog.Log
		root *core.PhaseType
		run  engineRun
	}{
		{grun.Log, groot, engineRun{cluster: grun.Cluster, start: grun.Start, end: grun.End}},
		{prun.Log, proot, engineRun{cluster: prun.Cluster, start: prun.Start, end: prun.End}},
	} {
		m, err := core.NewExecutionModel(run.root)
		if err != nil {
			t.Fatal(err)
		}
		run.run.tr, err = core.BuildExecutionTrace(run.log, m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, run.run)
	}
	return out
}

// checkPlan compares the plan's replay of tr under durs with the oracle's:
// makespan, every phase's start and end, and the critical path.
func checkPlan(t *testing.T, name string, tr *core.ExecutionTrace, durs Durations) {
	t.Helper()
	r := replayOracle(tr, durs)
	want := vtime.Duration(r.endOf(tr.Root))
	if got := Replay(tr, durs); got != want {
		t.Fatalf("%s: Replay = %v, oracle %v", name, got, want)
	}
	pl := compile(tr)
	dense := append([]vtime.Duration(nil), pl.intrinsic...)
	for s, leaf := range pl.leaves {
		if d, ok := durs[leaf]; ok {
			dense[s] = max(d, 0)
		}
	}
	c := critical{pl, make([]vtime.Time, len(pl.slot))}
	if got := pl.run(c.val, dense); got != want {
		t.Fatalf("%s: plan makespan %v, oracle %v", name, got, want)
	}
	for i, p := range pl.phases {
		if s, e := c.start(int32(i)), c.end(int32(i)); s != r.startOf(p) || e != r.endOf(p) {
			t.Fatalf("%s: phase %s replayed [%v, %v), oracle [%v, %v)",
				name, p.Path, s, e, r.startOf(p), r.endOf(p))
		}
	}
	if got, want := CriticalPath(tr), criticalPathOracle(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: critical path differs\nplan:   %v\noracle: %v", name, steps(got), steps(want))
	}
}

func steps(path []CriticalStep) []string {
	var out []string
	for _, s := range path {
		out = append(out, fmt.Sprintf("%s[%v,%v)", s.Phase.Path, s.Start, s.End))
	}
	return out
}

func TestPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		tr := randomTrace(t, rng, randomModel(t, rng))
		for j := 0; j < 3; j++ {
			checkPlan(t, fmt.Sprintf("case %d.%d", i, j), tr, randomDurations(rng, tr))
		}
	}
	for i, run := range engineRuns(t) {
		checkPlan(t, fmt.Sprintf("engine %d", i), run.tr, nil)
		checkPlan(t, fmt.Sprintf("engine %d", i), run.tr, randomDurations(rng, run.tr))
	}
}

func TestPlanRejectsSequentialSyncGroupCycle(t *testing.T) {
	root := core.NewRootType("app")
	step := root.Child("step", true)
	step.Sequential, step.SyncGroup = true, true
	m, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/app", -1)
	l.StartPhase("/app/step.0", -1)
	now = at(1)
	l.EndPhase("/app/step.0")
	l.StartPhase("/app/step.1", -1)
	now = at(2)
	l.EndPhase("/app/step.1")
	l.EndPhase("/app")
	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("compile accepted a dependency cycle")
		}
	}()
	compile(tr)
}

func TestPlanRunZeroAllocs(t *testing.T) {
	pl := compile(engineRuns(t)[1].tr)
	b := pl.buffer()
	pl.run(b.val, b.durs)
	if allocs := testing.AllocsPerRun(20, func() { pl.run(b.val, b.durs) }); allocs != 0 {
		t.Fatalf("warm plan run allocates %v times", allocs)
	}
}

// TestPlanConcurrentRuns replays one plan from 8 goroutines at once, each
// with its own pooled buffer and what-if, as Analyze's candidate workers do.
// Goroutine g scales every 8th leaf, from leaf g on, by g+1.
func TestPlanConcurrentRuns(t *testing.T) {
	tr := engineRuns(t)[1].tr
	pl := compile(tr)
	const goroutines = 8
	want := make([]vtime.Duration, goroutines)
	for g := range want {
		durs := Durations{}
		for s := g; s < len(pl.leaves); s += goroutines {
			durs[pl.leaves[s]] = pl.intrinsic[s] * vtime.Duration(g+1)
		}
		want[g] = Replay(tr, durs)
	}
	if want[0] == want[goroutines-1] {
		t.Fatal("the what-ifs do not change the makespan; the check would be vacuous")
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				b := pl.buffer()
				for s := g; s < len(pl.leaves); s += goroutines {
					b.set(s, pl.intrinsic[s]*vtime.Duration(g+1))
				}
				got := pl.run(b.val, b.durs)
				bufPool.Put(b)
				if got != want[g] {
					t.Errorf("goroutine %d: makespan %v, want %v", g, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomProfile attributes random per-second usage of one cpu resource over
// tr at a slice width that does not divide the leaves' 250 ms grid, then
// reopens a random eighth of the leaves (End = -1), as live windows do.
func randomProfile(t *testing.T, rng *rand.Rand, tr *core.ExecutionTrace) *attribution.Profile {
	t.Helper()
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 10}
	ss := &metrics.SampleSeries{}
	for s := tr.Start; s < tr.End; s = s.Add(vtime.Second) {
		ss.Samples = append(ss.Samples, metrics.Sample{Start: s, End: s.Add(vtime.Second), Avg: 10 * rng.Float64()})
	}
	rt := core.NewResourceTrace()
	if len(ss.Samples) > 0 {
		if err := rt.Add(res, core.GlobalMachine, ss); err != nil {
			t.Fatal(err)
		}
	}
	width := []vtime.Duration{130, 300, 700, 1000, 1300}[rng.Intn(5)] * vtime.Millisecond
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(), core.NewTimeslices(tr.Start, tr.End, width))
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		if rng.Intn(8) == 0 {
			leaf.End = -1
			leaf.InvalidateBlockIndex()
		}
	}
	return prof
}

func TestUnderutilizationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	thresholds := []float64{0, 0.2, 0.5, 0.9}
	found := 0
	for i := 0; i < 200; i++ {
		tr := randomTrace(t, rng, randomModel(t, rng))
		if tr.End == tr.Start {
			continue // no timeslices to attribute
		}
		prof := randomProfile(t, rng, tr)
		th := thresholds[rng.Intn(len(thresholds))]
		got, want := DetectUnderutilization(prof, th), underutilizationOracle(prof, th)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: underutilization %+v, oracle %+v", i, got, want)
		}
		if len(got.Slices) > 0 {
			found++
		}
	}
	if found < 50 {
		t.Fatalf("only %d random cases have underutilized slices; the check is near vacuous", found)
	}

	// The fixture run: a Giraph job's profile under its own monitoring.
	run := engineRuns(t)[0]
	tr := run.tr
	mon, err := cluster.Monitor(run.cluster, run.start, run.end, 50*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewResourceTrace()
	resources := map[string]*core.Resource{}
	for _, rs := range mon {
		res := resources[rs.Resource]
		if res == nil {
			res = &core.Resource{Name: rs.Resource, Kind: core.Consumable, Capacity: rs.Capacity, PerMachine: true}
			resources[rs.Resource] = res
		}
		if err := rt.Add(res, rs.Machine, rs.Samples); err != nil {
			t.Fatal(err)
		}
	}
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(), core.NewTimeslices(tr.Start, tr.End, 10*vtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range thresholds {
		got, want := DetectUnderutilization(prof, th), underutilizationOracle(prof, th)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fixture, threshold %v: underutilization %+v, oracle %+v", th, got, want)
		}
		if th == 0.9 && len(got.Slices) == 0 {
			t.Fatal("fixture has no underutilized slice at threshold 0.9; the check would be vacuous")
		}
	}
}
