package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/issues"
	"grade10/internal/report"
	"grade10/internal/rundir"
)

func modelsFor(info rundir.Info) (grade10.Models, error) {
	return grade10.ModelsForEngine(info.Engine, grade10.ModelParams{
		Job:              info.Job,
		Cores:            info.Cores,
		NetBandwidth:     info.NetBandwidth,
		DiskBandwidth:    info.DiskBandwidth,
		ThreadsPerWorker: info.ThreadsPerWorker,
	})
}

// batchReport is the batch path as cmd/grade10 runs it: run dir →
// rundir.Load → grade10.Characterize → report.WriteAll.
func batchReport(dir string, par int) (*grade10.Output, rundir.Info, []byte, error) {
	run, err := rundir.Load(dir)
	if err != nil {
		return nil, rundir.Info{}, nil, err
	}
	models, err := modelsFor(run.Info)
	if err != nil {
		return nil, rundir.Info{}, nil, err
	}
	out, err := grade10.Characterize(grade10.Input{
		Log: run.Log, Monitoring: run.Monitoring, Models: models, Parallelism: par,
	})
	if err != nil {
		return nil, rundir.Info{}, nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		return nil, rundir.Info{}, nil, err
	}
	return out, run.Info, buf.Bytes(), nil
}

// layeredReport is the same batch path with each layer called on its own,
// so every layer gets a span: rundir.Load split into its two public calls,
// then the stages grade10.Characterize chains. Its report must be
// byte-identical to batchReport's, which checks the split as well.
func layeredReport(dir string, par int, t *tracer) ([]byte, fingerprint, error) {
	var fp fingerprint
	endLoad := t.open("rundir.load", false)
	meta, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		return nil, fp, err
	}
	var info rundir.Info
	if err := json.Unmarshal(meta, &info); err != nil {
		return nil, fp, fmt.Errorf("%s: %w", dir, err)
	}
	lf, err := os.Open(filepath.Join(dir, "execution.log"))
	if err != nil {
		return nil, fp, err
	}
	defer lf.Close()
	end := t.open("enginelog.decode", true)
	log, _, _, err := enginelog.ReadStatsAny(lf)
	if err != nil {
		return nil, fp, err
	}
	end(map[string]int64{"events": int64(len(log.Events))})
	mf, err := os.Open(filepath.Join(dir, "monitoring.csv"))
	if err != nil {
		return nil, fp, err
	}
	defer mf.Close()
	end = t.open("rundir.monitoring_parse", true)
	mon, err := rundir.ReadMonitoring(mf)
	if err != nil {
		return nil, fp, err
	}
	for _, rs := range mon {
		fp.MonitoringRows += int64(len(rs.Samples.Samples))
	}
	end(map[string]int64{"rows": fp.MonitoringRows})
	endLoad(nil)
	models, err := modelsFor(info)
	if err != nil {
		return nil, fp, err
	}

	end = t.open("core.trace_build", true)
	tr, err := core.BuildExecutionTrace(log, models.Exec)
	if err != nil {
		return nil, fp, err
	}
	for _, p := range tr.ByPath {
		fp.Blocked += int64(len(p.Blocked))
	}
	leaves := tr.Leaves()
	fp.Leaves = int64(len(leaves))
	end(map[string]int64{"leaves": fp.Leaves, "blocked_intervals": fp.Blocked})

	end = t.open("core.resource_trace", false)
	rt := core.NewResourceTrace()
	for _, rs := range mon {
		res := models.Res.Lookup(rs.Resource)
		if res == nil || res.Kind != core.Consumable {
			continue
		}
		machine := rs.Machine
		if !res.PerMachine {
			machine = core.GlobalMachine
		}
		if err := rt.Add(res, machine, rs.Samples); err != nil {
			return nil, fp, err
		}
	}
	end(nil)

	end = t.open("attribution.attribute", true)
	slices := core.NewTimeslices(tr.Start, tr.End, grade10.DefaultTimeslice)
	prof, err := attribution.AttributeWindowProv(tr, leaves, rt, models.Rules, slices, par, nil, nil)
	if err != nil {
		return nil, fp, err
	}
	fp.Slices = int64(slices.Count)
	end(map[string]int64{"slices": fp.Slices})

	end = t.open("bottleneck.detect", true)
	btl := bottleneck.Detect(prof, bottleneck.Config{})
	end(map[string]int64{"found": int64(len(btl.Bottlenecks))})

	end = t.open("issues.analyze", true)
	iss := issues.Analyze(prof, btl, issues.Config{Parallelism: par})
	end(map[string]int64{"found": int64(len(iss.Issues))})

	out := &grade10.Output{Trace: tr, Slices: slices, Profile: prof, Bottlenecks: btl, Issues: iss}
	var buf bytes.Buffer
	end = t.open("report.write", true)
	if err := report.WriteAll(&buf, out); err != nil {
		return nil, fp, err
	}
	end(map[string]int64{"bytes": int64(buf.Len())})

	fp.Events = int64(len(log.Events))
	if st, err := lf.Stat(); err == nil {
		fp.LogBytes = st.Size()
	}
	if st, err := mf.Stat(); err == nil {
		fp.MonitoringBytes = st.Size()
	}
	return buf.Bytes(), fp, nil
}
