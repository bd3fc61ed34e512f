package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"grade10/internal/grade10"
	"grade10/internal/profstore"
	"grade10/internal/rundir"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-gen" {
		os.Exit(genMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "work directory for inputs, archives and the trace file")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		work: filepath.Join(*dir, "work", fmt.Sprintf("%s-seed%d", *name, *seed)), scale: defaultScale,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// genMain is the set-up child process: perfbench -gen -workload W -seed N
// -scale S -out DIR writes the workload's input run dirs under DIR.
func genMain(args []string) int {
	fs := flag.NewFlagSet("perfbench -gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "input seed")
	scale := fs.Int("scale", defaultScale, "R-MAT scale")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sources, ok := workloads[*name]
	if !ok || *out == "" {
		fmt.Fprintf(os.Stderr, "perfbench -gen: need a known -workload and -out\n")
		return 2
	}
	if err := generate(sources, *scale, *seed, *out, runtime.NumCPU()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench -gen: %v\n", err)
		return 2
	}
	return 0
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string
	scale    int // R-MAT scale of the inputs; tests shrink it
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reference is one source run dir with the batch results every other path
// must reproduce.
type reference struct {
	src      source
	dir      string
	info     rundir.Info
	models   grade10.Models
	report   []byte // batch report at parallelism 1
	recordID string // content ID of profstore.BuildRecord over that output
	fp       fingerprint
}

// measurePar is the analysis parallelism of the measured batch path (fleet
// engines run at 1 too, see fleetRound). On a 2-vCPU host, parallelism 2
// made reports about 10% faster but the run-to-run spread of report_ms_p50
// five times wider (0.35 against 0.07 over four runs of one seed), too
// noisy to bound a regression. The program's default is parallelism
// GOMAXPROCS, so a change to its parallel paths alone is not gated end to
// end; the correctness gate still runs parallelism nproc.
const measurePar = 1

// runner carries one benchmark run's state.
type runner struct {
	cfg   config
	nproc int
	refs  []*reference
	t     *tracer // nil in the untraced run

	attempted, failed int
	failures          []string

	// Admission figures gathered from traced fleet rounds.
	queueMS   []float64
	activeMax int
	shed      int64
}

func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runner) noteRound(rr roundResult) {
	r.attempted += rr.attempted
	r.failed += len(rr.failed)
	r.failures = append(r.failures, rr.failed...)
	if r.t != nil {
		r.queueMS = append(r.queueMS, rr.queueMS...)
		r.activeMax = max(r.activeMax, rr.activeMax)
		r.shed += rr.shed
	}
}

func run(cfg config, stdout io.Writer) (*result, error) {
	r := &runner{cfg: cfg, nproc: runtime.NumCPU()}
	host := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s parallelism=%d fleet_max_active=%d",
		r.nproc, runtime.GOMAXPROCS(0), runtime.Version(), measurePar, r.nproc)
	if r.nproc == 1 {
		host += " (1-core result)"
	}
	fmt.Fprintln(stdout, "host:", host)

	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dirs, setupSecs, err := setup(cfg.workload, cfg.scale, cfg.seed, cfg.work)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		r.t = newTracer()
	}
	if err := r.prepare(dirs, stdout); err != nil {
		return nil, err
	}
	// The peak resident set is that of the measured phase alone: the
	// references and the memory the gate freed are released and the
	// kernel's high-water mark reset first.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	m, err := r.measure()
	if err != nil {
		return nil, err
	}
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := r.crossCheck(); err != nil {
		return nil, err
	}
	for _, f := range r.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if cfg.traced {
		res.Metrics = r.layerMetrics(m)
		fmt.Fprintf(stdout, "per-layer self time (traced run, %d spans):\n", len(r.t.spans))
		r.t.writeSelfTable(stdout)
		path := filepath.Join(cfg.work, "trace.json")
		if err := r.t.writeChromeTrace(path, "perfbench "+cfg.workload+" "+host); err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, "trace:", path)
	} else {
		res.Metrics = r.endToEndMetrics(m, setupSecs, peakRSS)
	}
	for _, d := range []string{"inputs-0", "regs", "archive"} {
		if err := os.RemoveAll(filepath.Join(cfg.work, d)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prepare builds a reference for every source of the workload and runs
// the first cross-path check on it: the batch report at parallelism 1 must
// be byte-identical to the layer-by-layer path at parallelism nproc. It
// also checks each input's fingerprint.
func (r *runner) prepare(dirs []string, stdout io.Writer) error {
	for i, dir := range dirs {
		src := workloads[r.cfg.workload][i]
		out1, info, rep1, err := batchReport(dir, 1)
		if err != nil {
			return err
		}
		start := time.Now()
		rec := profstore.BuildRecord(info, out1)
		built := time.Now()
		enc, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if r.t != nil {
			r.t.add(span{name: "profstore.build_record", start: r.t.since(start), end: r.t.since(built),
				alloc: -1, counts: map[string]int64{"record_bytes": int64(len(enc))}})
		}

		repN, fp, err := layeredReport(dir, r.nproc, r.t)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(rep1, repN), "%s: batch report differs between parallelism 1 and %d", src.name, r.nproc)
		fmt.Fprintf(stdout, "input %s: %s\n", src.name, fp)
		if r.cfg.scale == defaultScale {
			bad := checkFingerprint(src, fp)
			r.check(len(bad) == 0, "fingerprint: %s", strings.Join(bad, "; "))
		}
		models, err := modelsFor(info)
		if err != nil {
			return err
		}
		r.refs = append(r.refs, &reference{src: src, dir: dir, info: info, models: models, report: rep1,
			recordID: profstore.ContentID(rec), fp: fp})
	}
	return nil
}

// crossCheck runs the other two cross-path checks over every source: the
// live Finalize report against the batch report, and fleet-archived record
// IDs against profstore.BuildRecord over the batch output. It runs after
// the measured phase so that its fleet round, which holds several engines
// at once, does not set the measured phase's peak memory.
func (r *runner) crossCheck() error {
	for _, ref := range r.refs {
		rep, err := replay(ref, r.nproc, r.t)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(rep, ref.report), "%s: live Finalize report differs from the batch report", ref.src.name)
	}
	// Enough registrations that at least one waits for an active slot.
	regs, err := makeRegistrations(filepath.Join(r.cfg.work, "regs"), "check", r.refs, max(r.nproc+1, len(r.refs)))
	if err != nil {
		return err
	}
	rr, err := fleetRound(regs, filepath.Join(r.cfg.work, "archive", "check"), r.nproc, r.t)
	if err != nil {
		return err
	}
	r.noteRound(rr)
	return nil
}

// measure runs the workload's measured phase.
func (r *runner) measure() (measured, error) {
	if strings.HasPrefix(r.cfg.workload, "batch-") {
		return r.measureBatch()
	}
	return r.measureFleet()
}

// measured is what a workload's measured phase collected.
type measured struct {
	results    int
	reportMS   []float64 // untraced results
	tracedMS   []float64 // traced results (traced run only)
	lagMS      []float64
	lateMS     []float64
	eventsPerS []float64
	wall       time.Duration // time the results took, for results per second
	cpu        time.Duration // process CPU time of the iterations
	allocB     uint64        // heap bytes the iterations allocated
	ready      time.Time     // when the current iteration's forced collection ended
}

// iterate runs one iteration of the measured phase and adds its process
// CPU time and allocation. A forced collection first makes every iteration
// start from the same small heap, as a fresh cmd/grade10 process does;
// without it, where the collector's cycle falls within an iteration made
// the per-iteration times scatter more.
func (m *measured) iterate(fn func() error) error {
	runtime.GC()
	m.ready = time.Now()
	u0 := readUsage()
	err := fn()
	u1 := readUsage()
	m.cpu += u1.cpu - u0.cpu
	m.allocB += u1.allocB - u0.allocB
	return err
}

// tracedIter reports whether iteration i of the measured phase is traced:
// in the traced run every other one, so that the untraced ones give the
// baseline for the tracing overhead.
func (r *runner) tracedIter(i int) *tracer {
	if r.t != nil && i%2 == 1 {
		return r.t
	}
	return nil
}

func (r *runner) deadline() time.Time {
	return time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}

// measureBatch is a closed loop with one caller: each report is requested
// when the previous one has been checked and the forced collection between
// iterations has ended.
func (r *runner) measureBatch() (measured, error) {
	ref := r.refs[0]
	var m measured
	deadline := r.deadline()
	for i := 0; time.Now().Before(deadline); i++ {
		t := r.tracedIter(i)
		err := m.iterate(func() error {
			start := time.Now()
			m.lateMS = append(m.lateMS, ms(start.Sub(m.ready)))
			var rep []byte
			var err error
			if r.t != nil {
				// In the traced run both sides run the same code, so the
				// difference is the tracing alone.
				rep, _, err = layeredReport(ref.dir, measurePar, t)
			} else {
				_, _, rep, err = batchReport(ref.dir, measurePar)
			}
			done := time.Now()
			if err != nil {
				return err
			}
			t.window(start, done)
			r.check(bytes.Equal(rep, ref.report), "%s: batch report differs from the parallelism-1 reference", ref.src.name)
			d := done.Sub(start)
			m.results++
			m.wall += d
			m.eventsPerS = append(m.eventsPerS, float64(ref.fp.Events)/d.Seconds())
			if t != nil {
				m.tracedMS = append(m.tracedMS, ms(d))
			} else {
				m.reportMS = append(m.reportMS, ms(d))
				m.lagMS = append(m.lagMS, ms(d))
			}
			return nil
		})
		if err != nil {
			return m, err
		}
	}
	return m, nil
}

// fleetRegistrationsPerSource sets a fleet-mixed round's size: two
// registrations of each source, all at once.
const fleetRegistrationsPerSource = 2

// measureFleet runs back-to-back fleet rounds, each a fresh fleet and
// archive given every registration at once.
func (r *runner) measureFleet() (measured, error) {
	regs, err := makeRegistrations(filepath.Join(r.cfg.work, "regs"), "run", r.refs, fleetRegistrationsPerSource*len(r.refs))
	if err != nil {
		return measured{}, err
	}
	var m measured
	deadline := r.deadline()
	for i := 0; time.Now().Before(deadline); i++ {
		t := r.tracedIter(i)
		var rr roundResult
		err := m.iterate(func() error {
			var err error
			rr, err = fleetRound(regs, filepath.Join(r.cfg.work, "archive", "round"), r.nproc, t)
			return err
		})
		if err != nil {
			return m, err
		}
		r.noteRound(rr)
		t.window(rr.start, rr.start.Add(rr.wall))
		m.results += rr.archived
		m.wall += rr.wall
		m.eventsPerS = append(m.eventsPerS, float64(rr.events)/rr.wall.Seconds())
		m.lateMS = append(m.lateMS, rr.lateMS...)
		if t != nil {
			m.tracedMS = append(m.tracedMS, rr.latencyMS...)
		} else {
			m.reportMS = append(m.reportMS, rr.latencyMS...)
			m.lagMS = append(m.lagMS, rr.lagMS...)
		}
	}
	return m, nil
}

func (r *runner) endToEndMetrics(m measured, setupSecs []float64, peakRSS float64) map[string]metric {
	n := float64(max(m.results, 1))
	return map[string]metric{
		"setup_s":             {median(setupSecs), "s"},
		"report_ms_p50":       {median(m.reportMS), "ms"},
		"report_ms_p90":       {quantile(m.reportMS, 0.9), "ms"},
		"cpu_ms_per_report":   {ms(m.cpu) / n, "ms"},
		"alloc_mb_per_report": {float64(m.allocB) / 1e6 / n, "MB"},
		"peak_rss_mb":         {peakRSS, "MB"},
		"window_lag_ms_p50":   {median(m.lagMS), "ms"},
		"window_lag_ms_p90":   {quantile(m.lagMS, 0.9), "ms"},
		"live_events_per_s":   {median(m.eventsPerS), "1/s"},
		"fleet_runs_per_s":    {float64(m.results) / m.wall.Seconds(), "1/s"},
	}
}

func (r *runner) layerMetrics(m measured) map[string]metric {
	t := r.t
	var flushMS []float64
	for _, s := range t.named("stream.ingest") {
		if s.counts["flush"] > 0 {
			flushMS = append(flushMS, ms(s.dur()))
		}
	}
	overhead := 0.0
	if base := median(m.reportMS); base > 0 {
		overhead = median(m.tracedMS)/base - 1
	}
	return map[string]metric{
		"enginelog.decode_ms":        {median(t.durMS("enginelog.decode")), "ms"},
		"enginelog.events":           {median(t.count("enginelog.decode", "events")), "count"},
		"enginelog.alloc_mb":         {median(t.allocMB("enginelog.decode")), "MB"},
		"rundir.monitoring_parse_ms": {median(t.durMS("rundir.monitoring_parse")), "ms"},
		"rundir.monitoring_rows":     {median(t.count("rundir.monitoring_parse", "rows")), "count"},
		"core.trace_build_ms":        {median(t.durMS("core.trace_build")), "ms"},
		"core.leaves":                {median(t.count("core.trace_build", "leaves")), "count"},
		"core.blocked_intervals":     {median(t.count("core.trace_build", "blocked_intervals")), "count"},
		"attribution.attribute_ms":   {median(t.durMS("attribution.attribute")), "ms"},
		"attribution.slices":         {median(t.count("attribution.attribute", "slices")), "count"},
		"attribution.alloc_mb":       {median(t.allocMB("attribution.attribute")), "MB"},
		"bottleneck.detect_ms":       {median(t.durMS("bottleneck.detect")), "ms"},
		"bottleneck.found":           {median(t.count("bottleneck.detect", "found")), "count"},
		"issues.analyze_ms":          {median(t.durMS("issues.analyze")), "ms"},
		"issues.found":               {median(t.count("issues.analyze", "found")), "count"},
		"issues.alloc_mb":            {median(t.allocMB("issues.analyze")), "MB"},
		"report.write_ms":            {median(t.durMS("report.write")), "ms"},
		"report.bytes":               {median(t.count("report.write", "bytes")), "count"},
		"profstore.build_record_ms":  {median(t.durMS("profstore.build_record")), "ms"},
		"profstore.put_ms":           {median(t.durMS("profstore.put")), "ms"},
		"profstore.record_bytes":     {median(t.count("profstore.build_record", "record_bytes")), "count"},
		"stream.ingest_call_us_p50":  {median(t.durMS("stream.ingest")) * 1000, "us"},
		"stream.flush_call_ms_p50":   {median(flushMS), "ms"},
		"stream.windows":             {median(t.count("stream.finalize", "windows")), "count"},
		"stream.finalize_ms":         {median(t.durMS("stream.finalize")), "ms"},
		"stream.finalize_alloc_mb":   {median(t.allocMB("stream.finalize")), "MB"},
		"fleet.register_us":          {median(t.durMS("fleet.register")) * 1000, "us"},
		"fleet.queue_wait_ms_p50":    {median(r.queueMS), "ms"},
		"fleet.active_max":           {float64(r.activeMax), "count"},
		"fleet.shed":                 {float64(r.shed), "count"},
		"loadgen.late_ms_p90":        {quantile(m.lateMS, 0.9), "ms"},
		"trace.coverage":             {t.coverage(), "ratio"},
		"trace.overhead_frac":        {overhead, "ratio"},
		"failed_frac":                {float64(r.failed) / float64(max(r.attempted, 1)), "ratio"},
	}
}
