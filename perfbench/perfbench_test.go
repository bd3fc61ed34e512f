package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
)

// TestMain lets set-up re-execute the test binary as its generator child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-gen" {
		os.Exit(genMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tinyScale keeps the smoke inputs to 2^9 vertices.
const tinyScale = 9

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload once untraced and once traced on tiny
// inputs and checks that every declared metric is printed with its unit,
// that every result is correct and that failed_frac is 0.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 0.2, traced: traced, work: t.TempDir(), scale: tinyScale}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, metric, got, unit)
				}
			}
			if traced && res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac = %v", name, res.Metrics["failed_frac"].Value)
			}
		}
	}
}

// TestAlteredResultsFail feeds each measured path and the cross-path
// checks after it (live Finalize report, fleet-archived record IDs) a
// deliberately altered reference and checks that every result is counted
// as failed.
func TestAlteredResultsFail(t *testing.T) {
	for _, name := range workloadNames {
		r := &runner{cfg: config{workload: name, seed: 1, seconds: 0.2, work: t.TempDir(), scale: tinyScale},
			nproc: runtime.NumCPU()}
		dirs, _, err := setup(name, tinyScale, 1, r.cfg.work)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.prepare(dirs, io.Discard); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("%s: unaltered references failed: %v", name, r.failures)
		}
		for _, ref := range r.refs {
			ref.report = append([]byte(nil), ref.report...)
			ref.report[len(ref.report)/2] ^= 1
			ref.recordID = "000000000000"
		}
		attempted := r.attempted
		m, err := r.measure()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.crossCheck(); err != nil {
			t.Fatal(err)
		}
		if m.results == 0 || r.failed != r.attempted-attempted {
			t.Errorf("%s: %d results, %d of %d checks failed; want every check failed",
				name, m.results, r.failed, r.attempted-attempted)
		}
	}
}
