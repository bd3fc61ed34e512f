// Command perfbench is the repository's benchmark: one command that
// generates seeded inputs with in-repo code, runs one of three workloads
// through the characterization pipeline, checks that every output is exact, and prints every end-to-end
// or per-layer metric by name with its unit. Later performance claims are
// measured with it. BENCH_pipeline.json stays the fixture-scale
// micro-benchmark of single stages; its 1,220-event input is too small to
// show the costs measured here.
//
// Run it from the repository root (the script builds the program into
// .bench_build first):
//
//	bash perfbench/run.sh --workload batch-giraph --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs traced and reports the per-layer metrics, prints
// a per-layer self-time table and writes the spans as a Chrome/Perfetto
// trace (checked with obs.ValidateTrace) to
// .bench_build/work/<workload>-seed<n>/trace.json. Earlier lines carry the
// host label (nproc, GOMAXPROCS, Go version, parallelism; 1-core results
// are marked) and each input's fingerprint. The program under test is
// unchanged: each layer is measured from outside by timing calls into its
// public functions.
//
// # Inputs
//
// The seed draws an R-MAT graph (scale 17, edge factor 16) with
// internal/graph; PageRank then runs on the giraph and powergraph
// simulators as cmd/runsim runs it, and each run is saved as a run dir with
// a text execution log. Set-up generates the inputs three times, each in a
// child process, checks the copies are byte-identical, and reports the
// median as setup_s. Each input's fingerprint (events, leaves, slices,
// blocked intervals, monitoring rows and bytes) is printed and checked
// against the ranges every seed falls in, so a change to the generators
// cannot drift a workload silently.
//
// # Workloads
//
//   - batch-giraph: giraph PageRank, 16 workers. A closed loop with one
//     caller runs run dir → rundir.Load → grade10.Characterize →
//     report.WriteAll. The trace is blocking-heavy (about 11,000 blocked
//     intervals from GC and queue stalls), so the bottleneck scan, issue
//     replay and the core.(*Phase).BlockedWithin path do most of the work.
//   - batch-powergraph: the same graph on powergraph through the same loop.
//     About 30× fewer blocked intervals, but more leaves and slices and
//     twice the monitoring bytes: it exercises attribution, issue replay and
//     the monitoring parse while bypassing the blocked-interval path, so a
//     blocked-interval change should not move it.
//   - fleet-mixed: rounds in which six registrations, two of each of
//     giraph16, powergraph16 and giraph64 (the second input scale), arrive
//     at once (an open loop) at a fleet.Fleet with MaxActive = nproc, a
//     queue deep enough that nothing is shed, Poll 10 ms and Idle 50 ms,
//     archiving into a fresh four-shard profstore. It is the only workload
//     with archive writes, admission and concurrent engines contending for
//     the cores.
//
// A fourth workload, live-giraph, an open-loop replay of the batch-giraph
// run into a stream.Engine paced at a fixed speed-up of virtual time, is
// left out for now: on a shared 2-vCPU host the spread of its
// window_lag_ms_p90 over ten seeds reached 0.36, over the 0.25 bound. The
// stream layer stays measured: fleet engines are stream engines, and the
// cross-path checks replay each input, unpaced, into one.
//
// # Correctness gate
//
// Before measuring, each input's batch report at parallelism 1 must be
// byte-identical to the layer-by-layer path at parallelism nproc. After
// measuring, each input's live Finalize report must be byte-identical to
// the batch report, and a fleet round with one more registration than
// there are active slots must archive records whose profstore.ContentID
// equals that of profstore.BuildRecord over the batch output. Every
// measured result is checked against the same references: each batch
// report against the batch report, and each archived
// record ID against the batch record's. A failed or mismatched result
// counts in failed, and the command exits non-zero.
//
// # Measuring
//
// The measured batch path runs the analysis at parallelism 1: on a 2-vCPU
// host, parallelism 2 made reports about 10% faster but the run-to-run
// spread of report_ms_p50 five times wider. The fleet runs nproc engines at
// once, each at parallelism 1. The program's own default is parallelism
// GOMAXPROCS, so the end-to-end metrics do not time the attribution
// fan-out or the parallel issue replays: a change to those parallel paths
// alone is not gated end to end, and shows only in the per-layer metrics
// of the correctness gate, which runs parallelism nproc. Every iteration
// starts
// after a forced collection, as a fresh cmd/grade10 process starts with an
// empty heap; CPU time and allocation are summed over the iterations only.
//
// # End-to-end metrics (--trace 0)
//
// Timings are medians and 90th percentiles over the run's results.
//
//   - setup_s: median input generation time.
//   - report_ms_p50, report_ms_p90: input complete → exact result. Batch:
//     run dir → report bytes. Fleet: round
//     start (every registration's due time) → record archived, including
//     queue wait and the constant Idle.
//   - cpu_ms_per_report: process CPU time (rusage) per result.
//   - alloc_mb_per_report: heap bytes allocated per result.
//   - peak_rss_mb: the process's peak resident set (VmHWM) during the
//     measured phase alone. Set-up runs in child processes; after the
//     first cross-path check the heap is collected and returned to the
//     kernel and the high-water mark reset, and the other checks run
//     afterwards, so none of them counts.
//   - window_lag_ms_p50, window_lag_ms_p90: due time of the input → the
//     window it completes is delivered. A fleet run's inputs are all due at
//     the round start, so there it is round start → the OnWindowFlush
//     callback. A batch run delivers one window, its report, so there it
//     equals report_ms.
//   - live_events_per_s: input events characterized per second: for batch,
//     events over report time; for fleet, the events of a round's archived
//     runs over its wall time.
//   - fleet_runs_per_s: results per wall second of the measured results:
//     records archived (fleet), reports (batch).
//
// failed_frac, the share of failed results, is a per-layer metric: it is 0
// on a correct run, and an end-to-end metric must never be 0. The
// attempted and failed counts of every run carry it as well.
//
// # Per-layer metrics (--trace 1) and the end-to-end metric each moves
//
// The traced run alternates untraced and traced iterations; the traced ones
// record one span around each layer call, from this package's files, and
// the batch path splits rundir.Load into enginelog.ReadStatsAny and
// rundir.ReadMonitoring. A layer metric is the median over every call into
// the layer in the traced run, the correctness gate included, so layers off
// a workload's measured path (for batch: stream, fleet, profstore) are
// measured on its inputs by the gate. The trace file leaves out per-line
// ingest calls that flushed no window (hundreds of thousands of sub-10 µs
// slices); the metrics still count them.
//
//   - enginelog.decode_ms, .events, .alloc_mb (enginelog.ReadStatsAny) →
//     report_ms_p50 on both batch workloads, live_events_per_s.
//   - rundir.monitoring_parse_ms, .monitoring_rows (rundir.ReadMonitoring)
//     → report_ms_p50 mostly on batch-powergraph, fleet_runs_per_s.
//   - core.trace_build_ms, .leaves, .blocked_intervals
//     (core.BuildExecutionTrace) → report_ms_p50 on both batch workloads;
//     blocked_intervals separates giraph from powergraph.
//   - attribution.attribute_ms, .slices, .alloc_mb → report_ms_p50 on
//     batch-powergraph, window_lag_ms_p50 on fleet-mixed (a flush is mostly
//     attribution).
//   - bottleneck.detect_ms, .found → report_ms_p50 on batch-giraph; near
//     flat on batch-powergraph.
//   - issues.analyze_ms, .found, .alloc_mb → report_ms_p50 on both batch
//     workloads and on fleet-mixed, because Finalize re-runs it.
//   - report.write_ms, .bytes → report_ms_p50 everywhere (a small share).
//   - profstore.build_record_ms, .put_ms, .record_bytes → report_ms_p90 and
//     fleet_runs_per_s on fleet-mixed. put_ms wraps the profstore.Archive
//     handed to the fleet.
//   - stream.ingest_call_us_p50 (per-line calls of the cross-path replay)
//     → live_events_per_s on fleet-mixed.
//   - stream.flush_call_ms_p50 (ingest calls during which a window
//     flushed), stream.windows → window_lag_ms_p50/p90 on fleet-mixed.
//   - stream.finalize_ms, .finalize_alloc_mb → report_ms_p50 on
//     fleet-mixed.
//   - fleet.register_us, .queue_wait_ms_p50 (registrations that queued;
//     the admission counters are polled every millisecond and the queue is
//     FIFO), .active_max, .shed → fleet_runs_per_s and report_ms_p90 on
//     fleet-mixed.
//   - loadgen.late_ms_p90: how late the load generator issued inputs
//     relative to their due time (closed loop: when the previous result
//     was checked and the forced collection after it ended).
//   - trace.coverage: share of the traced iterations' wall time covered by
//     layer spans. A fleet registration's span runs from Register to its
//     archived record: the fleet layer holds the run for that long.
//   - trace.overhead_frac: traced over untraced report_ms_p50, minus one.
//     In the traced batch run both kinds of iteration run the
//     layer-by-layer path, so the ratio is the tracing cost alone.
//   - failed_frac: failed over attempted results.
package main
