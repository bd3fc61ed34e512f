package stream_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/metrics"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

// windowBlockingGolden is what the engine produced for the event sequence of
// TestWindowBlockingMutations when blocked time was gathered and sorted
// from the raw intervals on every query, before the blocked-interval index
// existed.
const windowBlockingGolden = `window 0 [0,0.04) coverage=1
  cpu@0 consumed=0.033999999999999996 attributed=0.033999999999999996 unattributed=0 saturated=0
window 1 [0.04,0.08) coverage=0.7837837837837838
  cpu@0 consumed=0.037 attributed=0.028999999999999998 unattributed=0.008 saturated=1
  /job/worker.0/compute.0 cpu saturation 0.004
window 2 [0.08,0.12) coverage=0.8500000000000001
  cpu@0 consumed=0.04 attributed=0.034 unattributed=0.006000000000000001 saturated=1
  /job/worker.0/compute.3 cpu saturation 0.005
window 3 [0.12,0.13) coverage=0.9999999999999998
  cpu@0 consumed=0.01 attributed=0.009999999999999998 unattributed=0 saturated=0
`

// TestWindowBlockingMutations feeds the two mutations the live tree sees
// after a phase has been queried: a blocking event on an ancestor arriving
// after one of its children closed, and an open leaf that each flush extends
// to the horizon and then restores. Every window's attribution and
// bottlenecks must stay what the gather-and-sort oracle produced.
func TestWindowBlockingMutations(t *testing.T) {
	job := core.NewRootType("job")
	worker := job.Child("worker", true)
	worker.Child("compute", true)
	exec, err := core.NewExecutionModel(job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewResourceModel(
		&core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 1.5, PerMachine: true},
		&core.Resource{Name: "gc", Kind: core.Blocking, PerMachine: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	rules := core.NewRuleSet().Set("/job/worker/compute", "cpu", core.Exact(1))

	var windows []*stream.WindowResult
	e, err := stream.New(stream.Config{
		Models:    grade10.Models{Exec: exec, Res: res, Rules: rules},
		Timeslice: 10 * vtime.Millisecond, WindowSlices: 4, Parallelism: 1,
		OnWindowFlush: func(w *stream.WindowResult) {
			if w != nil {
				windows = append(windows, w)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	at := func(msec int64) vtime.Time { return vtime.Time(msec) * vtime.Time(vtime.Millisecond) }
	for k := int64(0); k < 13; k++ {
		e.IngestSample(0, "cpu", 1.5, metrics.Sample{
			Start: at(10 * k), End: at(10*k + 10), Avg: 0.4 + 0.3*float64(k%5),
		})
	}
	const (
		w  = "/job/worker.0"
		c0 = w + "/compute.0"
		c1 = w + "/compute.1"
	)
	start := func(msec int64, path string, machine int) {
		e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseStart, Time: at(msec), Path: path, Machine: machine})
	}
	end := func(msec int64, path string) {
		e.IngestEvent(enginelog.Event{Kind: enginelog.PhaseEnd, Time: at(msec), Path: path})
	}
	block := func(from, to int64, path string) {
		e.IngestEvent(enginelog.Event{Kind: enginelog.Blocked, Time: at(from), End: at(to),
			Path: path, Resource: "gc"})
	}
	start(0, "/job", -1)
	start(0, w, 0)
	start(0, c0, -1)
	start(0, c1, -1)
	block(5, 15, c1)
	end(50, c0) // window [0,40) flushes with c1 extended to the horizon
	block(42, 48, w)
	block(55, 62, c1)
	start(60, w+"/compute.2", -1)
	end(85, w+"/compute.2") // window [40,80): c0 sees the late ancestor stall
	start(90, w+"/compute.3", -1)
	block(95, 100, w)
	end(125, w+"/compute.3")
	end(130, c1) // window [80,120) after c1 closed
	end(130, w)
	end(130, "/job")
	e.MonitoringDone()
	if _, err := e.Finalize(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, wr := range windows {
		fmt.Fprintf(&b, "window %d [%s,%s) coverage=%s\n", wr.Index, f(wr.StartSeconds), f(wr.EndSeconds), f(wr.Coverage))
		for _, in := range wr.Instances {
			fmt.Fprintf(&b, "  %s consumed=%s attributed=%s unattributed=%s saturated=%d\n", in.Key,
				f(in.ConsumedUnitSeconds), f(in.AttributedUnitSeconds), f(in.UnattributedUnitSeconds), in.SaturatedSlices)
		}
		for _, bt := range wr.Bottlenecks {
			fmt.Fprintf(&b, "  %s %s %s %s\n", bt.Path, bt.Resource, bt.Kind, f(bt.Seconds))
		}
	}
	if got := b.String(); got != windowBlockingGolden {
		t.Fatalf("window results changed\n--- got ---\n%s--- want ---\n%s", got, windowBlockingGolden)
	}
}
