// Package profstore is the append-only archive of analyzed runs — the
// persistence layer that turns the one-shot characterization pipeline into a
// continuously observable perf trajectory. Each archived run is a Record: a
// compact, stable-encoded summary of one grade10.Output (phase-type tree,
// attribution totals, bottleneck rows, issue list) keyed by a deterministic
// content hash, so re-archiving the same analysis is idempotent and the same
// run produces the same ID at every -parallelism setting.
//
// Layout on disk:
//
//	<dir>/shards.json                shard count and the global sequence counter
//	<dir>/shard-<k>/index.json       append-ordered metadata of the shard's runs
//	<dir>/shard-<k>/runs/<id>.json   one Record per archived run
//
// A run lives in the shard picked by its ID's hex prefix. The shard count is
// fixed when the archive is created and read back from shards.json on every
// open. Retention is bounded per shard: Options.MaxRunsPerShard caps each
// shard, and its oldest records (lowest sequence number) are evicted
// deterministically; evictions are counted for the
// grade10_runs_evicted_total gauge.
package profstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

// Version is the record and index schema version. Records without a version
// field load as version 1.
const Version = 1

// PhaseSummary aggregates all instances of one phase type on one machine.
// Machine is -1 when the phases were not bound to a machine anywhere in
// their ancestry (core.Phase semantics).
type PhaseSummary struct {
	TypePath string `json:"type_path"`
	Machine  int    `json:"machine"`
	// Leaf marks attribution-bearing phase types (no children in the
	// execution model); localization in profdiff ranks leaves only, so
	// ancestors do not absorb the blame for their children.
	Leaf    bool  `json:"leaf"`
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MeanNS  int64 `json:"mean_ns"`
	MaxNS   int64 `json:"max_ns"`
	// BlockedNS sums blocking time per resource across the instances.
	BlockedNS map[string]int64 `json:"blocked_ns,omitempty"`
}

// ResourceSummary integrates one resource instance over the profiled span.
type ResourceSummary struct {
	// Key is the instance key, e.g. "cpu@0" or "barrier@global".
	Key      string  `json:"key"`
	Resource string  `json:"resource"`
	Machine  int     `json:"machine"`
	Capacity float64 `json:"capacity"`
	// ConsumedUnitSeconds etc. are unit·second integrals of the upsampled
	// consumption and its attributed/unattributed split.
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	// AvgUtilization is mean consumption over capacity across the span.
	AvgUtilization float64 `json:"avg_utilization"`
}

// AttributionCell is the attributed consumption of one phase type on one
// resource, summed over machines and instances — the cross-run comparable
// core of the paper's 3-D attribution array.
type AttributionCell struct {
	TypePath    string  `json:"type_path"`
	Resource    string  `json:"resource"`
	UnitSeconds float64 `json:"unit_seconds"`
}

// BottleneckSummary aggregates detected bottlenecks of one
// (type path, resource, kind).
type BottleneckSummary struct {
	TypePath string `json:"type_path"`
	Resource string `json:"resource"`
	Kind     string `json:"kind"`
	Phases   int    `json:"phases"`
	TotalNS  int64  `json:"total_ns"`
}

// IssueSummary is one §III-F issue with its estimated impact.
type IssueSummary struct {
	Kind string `json:"kind"`
	// Target is the resource (bottleneck issues) or phase type (imbalance).
	Target       string  `json:"target"`
	OriginalNS   int64   `json:"original_ns"`
	OptimisticNS int64   `json:"optimistic_ns"`
	Impact       float64 `json:"impact"`
}

// BenchStage carries one wall-clock benchmark stage alongside the profile,
// so BENCH_*.json trajectories ride the same archive the watchdog reads.
// Wall-clock numbers are host-dependent (the seed container has one core;
// speedups there are honestly ~1x) and are excluded from the content ID.
type BenchStage struct {
	Name string `json:"name"`
	// NsPerOp maps a configuration label (e.g. "workers=4") to ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// Record is one archived run: everything profdiff needs to explain a
// cross-run delta, none of the raw per-timeslice bulk.
type Record struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	// Seq is the store-assigned append order; eviction drops lowest first.
	Seq   int64  `json:"seq"`
	Label string `json:"label,omitempty"`

	Engine      string `json:"engine"`
	Job         string `json:"job"`
	Workers     int    `json:"workers"`
	Timeslices  int    `json:"timeslices"`
	TimesliceNS int64  `json:"timeslice_ns"`
	MakespanNS  int64  `json:"makespan_ns"`

	Phases      []PhaseSummary      `json:"phases"`
	Resources   []ResourceSummary   `json:"resources"`
	Attribution []AttributionCell   `json:"attribution"`
	Bottlenecks []BottleneckSummary `json:"bottlenecks"`
	Issues      []IssueSummary      `json:"issues"`

	Stragglers            int     `json:"stragglers"`
	UnderutilizedFraction float64 `json:"underutilized_fraction"`

	Bench []BenchStage `json:"bench,omitempty"`
}

// Makespan returns the run's makespan as a virtual duration.
func (r *Record) Makespan() vtime.Duration { return vtime.Duration(r.MakespanNS) }

// BuildRecord summarizes one characterization into an archivable Record.
// Every slice is sorted on a total order, and every float is accumulated in
// the pipeline's deterministic output order, so the encoded record — and the
// content ID derived from it — is byte-identical across -parallelism.
func BuildRecord(info rundir.Info, out *grade10.Output) *Record {
	rec := &Record{
		Version:     Version,
		Engine:      info.Engine,
		Job:         info.Job,
		Workers:     info.Workers,
		Timeslices:  out.Slices.Count,
		TimesliceNS: int64(out.Slices.Width),
		MakespanNS:  int64(out.Trace.End.Sub(out.Trace.Start)),
	}

	// Phase summaries keyed by (type path, machine).
	type phaseKey struct {
		tp      string
		machine int
	}
	phases := map[phaseKey]*PhaseSummary{}
	out.Trace.Root.Walk(func(p *core.Phase) {
		if p.Type == nil {
			return // synthetic trace root
		}
		k := phaseKey{p.Type.Path(), p.Machine}
		ps, ok := phases[k]
		if !ok {
			ps = &PhaseSummary{TypePath: k.tp, Machine: k.machine, Leaf: p.Type.IsLeaf()}
			phases[k] = ps
		}
		ps.Count++
		d := int64(p.Duration())
		ps.TotalNS += d
		if d > ps.MaxNS {
			ps.MaxNS = d
		}
		for _, b := range p.Blocked {
			if ps.BlockedNS == nil {
				ps.BlockedNS = map[string]int64{}
			}
			ps.BlockedNS[b.Resource] += int64(b.Duration())
		}
	})
	rec.Phases = make([]PhaseSummary, 0, len(phases))
	for _, ps := range phases {
		ps.MeanNS = ps.TotalNS / int64(ps.Count)
		rec.Phases = append(rec.Phases, *ps)
	}
	sort.Slice(rec.Phases, func(i, j int) bool {
		a, b := rec.Phases[i], rec.Phases[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		return a.Machine < b.Machine
	})

	// Resource summaries and the (type path, resource) attribution cells.
	// Profile instances are in deterministic rt.Instances() order; usage
	// lists are in deterministic leaf order — accumulation order is fixed.
	type cellKey struct{ tp, res string }
	cells := map[cellKey]float64{}
	for _, ip := range out.Profile.Instances {
		consumed, attributed, unattributed := ip.Totals(out.Slices)
		avg := 0.0
		for _, c := range ip.Consumption {
			avg += c
		}
		if out.Slices.Count > 0 {
			avg /= float64(out.Slices.Count)
		}
		capacity := ip.Instance.Resource.Capacity
		util := 0.0
		if capacity > 0 {
			util = avg / capacity
		}
		rec.Resources = append(rec.Resources, ResourceSummary{
			Key:                     ip.Instance.Key(),
			Resource:                ip.Instance.Resource.Name,
			Machine:                 ip.Instance.Machine,
			Capacity:                capacity,
			ConsumedUnitSeconds:     consumed,
			AttributedUnitSeconds:   attributed,
			UnattributedUnitSeconds: unattributed,
			AvgUtilization:          util,
		})
		for _, u := range ip.Usage {
			if u.Phase.Type == nil {
				continue
			}
			cells[cellKey{u.Phase.Type.Path(), ip.Instance.Resource.Name}] += u.Total(out.Slices)
		}
	}
	sort.Slice(rec.Resources, func(i, j int) bool { return rec.Resources[i].Key < rec.Resources[j].Key })
	rec.Attribution = make([]AttributionCell, 0, len(cells))
	for k, v := range cells {
		rec.Attribution = append(rec.Attribution, AttributionCell{TypePath: k.tp, Resource: k.res, UnitSeconds: v})
	}
	sort.Slice(rec.Attribution, func(i, j int) bool {
		a, b := rec.Attribution[i], rec.Attribution[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		return a.Resource < b.Resource
	})

	// Bottleneck rows aggregated by (type path, resource, kind).
	type btlKey struct{ tp, res, kind string }
	btls := map[btlKey]*BottleneckSummary{}
	for _, b := range out.Bottlenecks.Bottlenecks {
		tp := "?"
		if b.Phase.Type != nil {
			tp = b.Phase.Type.Path()
		}
		k := btlKey{tp, b.Resource, b.Kind.String()}
		row, ok := btls[k]
		if !ok {
			row = &BottleneckSummary{TypePath: k.tp, Resource: k.res, Kind: k.kind}
			btls[k] = row
		}
		row.Phases++
		row.TotalNS += int64(b.Time)
	}
	rec.Bottlenecks = make([]BottleneckSummary, 0, len(btls))
	for _, row := range btls {
		rec.Bottlenecks = append(rec.Bottlenecks, *row)
	}
	sort.Slice(rec.Bottlenecks, func(i, j int) bool {
		a, b := rec.Bottlenecks[i], rec.Bottlenecks[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})

	for _, is := range out.Issues.Issues {
		target := is.Resource
		if target == "" {
			target = is.PhaseType
		}
		rec.Issues = append(rec.Issues, IssueSummary{
			Kind:         is.Kind.String(),
			Target:       target,
			OriginalNS:   int64(is.Original),
			OptimisticNS: int64(is.Optimistic),
			Impact:       is.Impact,
		})
	}
	sort.Slice(rec.Issues, func(i, j int) bool {
		a, b := rec.Issues[i], rec.Issues[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	rec.Stragglers = len(out.Issues.Outliers)
	rec.UnderutilizedFraction = out.Issues.Underutilization.Fraction
	return rec
}

// ContentID derives the record's deterministic ID: the first 12 hex digits
// of the SHA-256 of its stable encoding with the store-assigned fields (ID,
// Seq, Label) and the host-dependent Bench section zeroed. Two analyses of
// the same run — at any parallelism — share an ID; archiving is idempotent.
func ContentID(rec *Record) string {
	clone := *rec
	clone.ID, clone.Seq, clone.Label, clone.Bench = "", 0, "", nil
	data, err := json.Marshal(&clone)
	if err != nil {
		// Record marshaling cannot fail: plain structs, string-keyed maps.
		panic("profstore: encoding record: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}
