package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/stream"
)

// feedLine is one input line of a replay, due at virtual time vt: a log
// line with its newline, or a monitoring CSV row.
type feedLine struct {
	vt  int64
	log []byte
	mon string
}

// schedule merges a run dir's execution log and monitoring CSV into one
// stream in virtual-time order. A log line is due at the latest timestamp
// it carries (a blocking interval is known once it ends), kept monotone so
// the log's own order survives; a monitoring row is due at its sample's
// end.
func schedule(dir string) ([]feedLine, error) {
	var logLines, monLines []feedLine
	f, err := os.Open(filepath.Join(dir, "execution.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last int64
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		ts := []string{fields[1]}
		if fields[0] == "B" && len(fields) > 2 {
			ts = append(ts, fields[2])
		}
		for _, s := range ts {
			if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > last {
				last = v
			}
		}
		logLines = append(logLines, feedLine{vt: last, log: []byte(line + "\n")})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	mf, err := os.Open(filepath.Join(dir, "monitoring.csv"))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	sc = bufio.NewScanner(mf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		row, ok, err := rundir.ParseMonitoringLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			monLines = append(monLines, feedLine{vt: int64(row.Sample.End), mon: sc.Text()})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(monLines, func(i, j int) bool { return monLines[i].vt < monLines[j].vt })
	out := make([]feedLine, 0, len(logLines)+len(monLines))
	i, j := 0, 0
	for i < len(logLines) || j < len(monLines) {
		if j == len(monLines) || (i < len(logLines) && logLines[i].vt <= monLines[j].vt) {
			out = append(out, logLines[i])
			i++
		} else {
			out = append(out, monLines[j])
			j++
		}
	}
	return out, nil
}

// replay feeds one run into a fresh retain-mode engine through the
// byte-level ingest calls, as fast as the engine takes them, then finalizes
// and renders the report.
func replay(ref *reference, par int, t *tracer) ([]byte, error) {
	lines, err := schedule(ref.dir)
	if err != nil {
		return nil, err
	}
	resources := 3 // cpu, net-in, net-out, as cmd/serve sizes the engine
	if ref.info.DiskBandwidth > 0 {
		resources++
	}
	flushes := int64(0)
	eng, err := stream.New(stream.Config{
		Models:            ref.models,
		ExpectedInstances: ref.info.Workers * resources,
		RetainForFinal:    true,
		Parallelism:       par,
		OnWindowFlush: func(wr *stream.WindowResult) {
			if wr != nil {
				flushes++
			}
		},
	})
	if err != nil {
		return nil, err
	}
	// ingest times one ingest call; untraced, it only makes the call.
	ingest := func(call func()) {
		if t == nil {
			call()
			return
		}
		before := flushes
		end := t.open("stream.ingest", false)
		call()
		if n := flushes - before; n > 0 {
			end(map[string]int64{"flush": n})
		} else {
			end(nil)
		}
	}
	for i := range lines {
		ln := &lines[i]
		if ln.log != nil {
			ingest(func() { eng.IngestChunk(ln.log) })
		} else {
			ingest(func() { eng.IngestMonitoringLine(ln.mon) })
		}
	}
	ingest(eng.LogDone)
	ingest(eng.MonitoringDone)
	end := t.open("stream.finalize", true)
	out, err := eng.Finalize()
	end(map[string]int64{"windows": flushes})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	end = t.open("report.write", true)
	if err := report.WriteAll(&buf, out); err != nil {
		return nil, err
	}
	end(map[string]int64{"bytes": int64(buf.Len())})
	if flushes == 0 {
		return nil, fmt.Errorf("live replay of %s flushed no window", ref.src.name)
	}
	return buf.Bytes(), nil
}
