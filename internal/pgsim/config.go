// Package pgsim simulates a PowerGraph-like distributed GAS (gather, apply,
// scatter) graph processing engine with vertex-cut partitioning on the
// discrete-event cluster substrate. It executes the same vertex programs as
// the BSP engine, so results are identical, but its execution structure
// mirrors PowerGraph:
//
//   - edges live on exactly one worker; vertices are replicated, one replica
//     being the master (graph.GreedyVertexCut);
//   - each iteration runs gather (threads over local edges of active
//     vertices), a gather exchange (mirrors send partial accumulators to
//     masters), apply (masters update values), a sync exchange (masters
//     broadcast to mirrors), scatter, and a global barrier;
//   - being a C++ system, there is no GC, and its communication layer has no
//     producer-stalling bounded queues — matching the paper's finding that
//     neither bottleneck class appears in PowerGraph;
//   - optionally, the §IV-D synchronization bug is injected: on a seeded
//     fraction of (iteration, worker) pairs, one gather thread keeps
//     processing a late message stream while its siblings idle at the
//     barrier, producing the 1.10–2.50× step slowdowns the paper reports.
package pgsim

import (
	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/obs"
	"grade10/internal/vtime"
)

// ResBarrier is the blocking resource name for barrier and exchange waits.
const ResBarrier = "barrier"

// Config is the engine's cost and capacity model (core-seconds, bytes,
// bytes/second).
type Config struct {
	// Workers is the number of worker processes, one per machine. At most 64
	// (vertex-cut replica sets are machine words).
	Workers int
	// ThreadsPerWorker is the compute thread count.
	ThreadsPerWorker int
	// Machine describes each worker's host.
	Machine cluster.MachineSpec
	// ChunkEdges is the number of edges a thread processes per scheduling
	// quantum.
	ChunkEdges int

	// CostPerEdgeGather / CostPerEdgeScatter are charged per participating
	// edge in the respective minor-step.
	CostPerEdgeGather  float64
	CostPerEdgeScatter float64
	// CostPerVertexApply is charged per active master vertex, scaled by the
	// program's per-vertex weight.
	CostPerVertexApply float64
	// LoadCostPerEdge / WriteCostPerVertex cover the load and write phases.
	LoadCostPerEdge    float64
	WriteCostPerVertex float64
	// DiskBytesPerEdge / DiskBytesPerVertex are the storage volumes of the
	// load and write phases (0 with no disk).
	DiskBytesPerEdge   float64
	DiskBytesPerVertex float64

	// BytesPerPartial is the wire size of a mirror→master partial
	// accumulator; BytesPerUpdate of a master→mirror value update.
	BytesPerPartial float64
	BytesPerUpdate  float64

	// EnableSyncBug injects the §IV-D synchronization bug.
	EnableSyncBug bool
	// BugProbability is the chance that a given (iteration, worker) gather
	// step is affected.
	BugProbability float64
	// BugFactorMin/Max bound the uniform extra-work multiplier applied to
	// the straggling thread (its gather work is multiplied by the factor).
	BugFactorMin float64
	BugFactorMax float64
	// BugSeed makes the injection deterministic.
	BugSeed int64

	// SerializeCostPerByte is the CPU burned per exchanged byte
	// (serialization in the exchange phases).
	SerializeCostPerByte float64
	// OSNoiseCores enables per-machine unmodeled background CPU load up to
	// this many cores (0 disables); NoiseSeed makes it deterministic.
	OSNoiseCores float64
	NoiseSeed    int64

	// Tee, when set, observes every log event as it is emitted — the hook
	// for live characterization (service.Tap) while the engine runs. It is
	// called synchronously on the engine's goroutine.
	Tee func(enginelog.Event)

	// Tracer, when set, records self-trace spans for each GAS iteration and
	// its host-side plan precomputation, annotated with the iteration's
	// virtual-time window. Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// Parallelism is the host-side worker count for precomputing each
	// iteration's plan (participating edges and per-thread chunk work). The
	// simulation itself stays on the deterministic discrete-event scheduler,
	// so logs and results are byte-identical for every value. 0 takes
	// par.Default(); 1 disables host parallelism.
	Parallelism int
}

// DefaultConfig returns a configuration calibrated so compute dominates and
// exchange traffic is modest, matching the paper's PowerGraph profile (CPU
// bottlenecks significant, network ≤ a few percent, no GC/queue issues).
func DefaultConfig() Config {
	return Config{
		Workers:          4,
		ThreadsPerWorker: 8,
		Machine:          cluster.MachineSpec{Cores: 8, NetBandwidth: 1e9, DiskBandwidth: 150e6},
		ChunkEdges:       512,

		CostPerEdgeGather:  1.5e-7,
		CostPerEdgeScatter: 0.5e-7,
		CostPerVertexApply: 3e-7,
		LoadCostPerEdge:    4e-7,
		WriteCostPerVertex: 4e-7,
		DiskBytesPerEdge:   16,
		DiskBytesPerVertex: 8,

		BytesPerPartial: 32,
		BytesPerUpdate:  32,

		EnableSyncBug:  false,
		BugProbability: 0.25,
		BugFactorMin:   1.3,
		BugFactorMax:   3.2,
		BugSeed:        1,

		SerializeCostPerByte: 2e-9,
		OSNoiseCores:         0.4,
		NoiseSeed:            17,
	}
}

func (c Config) validate() error {
	switch {
	case c.Workers <= 0 || c.Workers > 64:
		return errf("Workers must be 1..64")
	case c.ThreadsPerWorker <= 0:
		return errf("ThreadsPerWorker must be positive")
	case c.Machine.Cores <= 0 || c.Machine.NetBandwidth <= 0:
		return errf("machine spec needs positive cores and bandwidth")
	case c.ChunkEdges <= 0:
		return errf("ChunkEdges must be positive")
	case c.EnableSyncBug && (c.BugProbability < 0 || c.BugProbability > 1):
		return errf("BugProbability must be in [0,1]")
	case c.EnableSyncBug && (c.BugFactorMin < 1 || c.BugFactorMax < c.BugFactorMin):
		return errf("bug factors must satisfy 1 ≤ min ≤ max")
	}
	return nil
}

type configError string

func (e configError) Error() string { return "pgsim: " + string(e) }

func errf(msg string) error { return configError(msg) }

// Stats aggregates engine-level observations of one run.
type Stats struct {
	// Iterations executed.
	Iterations int
	// BugInjections counts affected (iteration, worker) gather steps.
	BugInjections int
	// MessagesSent counts remote partials and updates.
	MessagesSent int64
	// BytesSent counts remote exchange bytes.
	BytesSent float64
	// BarrierWait is the total time workers spent waiting at barriers and
	// exchanges.
	BarrierWait vtime.Duration
	// ReplicationFactor of the vertex-cut used.
	ReplicationFactor float64
}
