package stream

import (
	"sort"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
)

// WindowInstance is one resource instance's profile within one window.
type WindowInstance struct {
	Key                     string  `json:"key"`
	Capacity                float64 `json:"capacity"`
	Utilization             float64 `json:"utilization"`
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	SaturatedSlices         int     `json:"saturated_slices"`
}

// WindowBottleneck is one detected bottleneck within one window.
type WindowBottleneck struct {
	Path     string  `json:"path"`
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Machine  int     `json:"machine"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
}

// WindowResult is the flushed profile of one window, the unit of the live
// view's ring buffer.
type WindowResult struct {
	Index        int                `json:"index"`
	StartSeconds float64            `json:"start_seconds"`
	EndSeconds   float64            `json:"end_seconds"`
	Slices       int                `json:"slices"`
	Coverage     float64            `json:"coverage"`
	Instances    []WindowInstance   `json:"instances"`
	Bottlenecks  []WindowBottleneck `json:"bottlenecks"`
}

// CounterValue aggregates one named counter from the log.
type CounterValue struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Last  float64 `json:"last"`
}

// OpenPhase describes a phase still executing at the watermark.
type OpenPhase struct {
	Path           string  `json:"path"`
	TypePath       string  `json:"type_path"`
	Machine        int     `json:"machine"`
	StartSeconds   float64 `json:"start_seconds"`
	RunningSeconds float64 `json:"running_seconds"`
}

// TypeSummary aggregates the closed instances of one phase type.
type TypeSummary struct {
	TypePath       string             `json:"type_path"`
	Count          int                `json:"count"`
	TotalSeconds   float64            `json:"total_seconds"`
	MeanSeconds    float64            `json:"mean_seconds"`
	MaxSeconds     float64            `json:"max_seconds"`
	BlockedSeconds map[string]float64 `json:"blocked_seconds,omitempty"`
}

// InstanceSummary aggregates one resource instance across flushed windows.
type InstanceSummary struct {
	Key                     string  `json:"key"`
	Capacity                float64 `json:"capacity"`
	Utilization             float64 `json:"utilization"`
	LastWindowUtilization   float64 `json:"last_window_utilization"`
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	SaturatedSeconds        float64 `json:"saturated_seconds"`
	Coverage                float64 `json:"coverage"`
}

// BottleneckSummary aggregates one (phase type, resource, kind) bottleneck
// across flushed windows.
type BottleneckSummary struct {
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
	Phases   int     `json:"phases"`
	Windows  int     `json:"windows"`
}

// Snapshot is a point-in-time view of the live profile, safe to serialize
// after the engine moves on.
type Snapshot struct {
	Finalized        bool    `json:"finalized"`
	TimesliceSeconds float64 `json:"timeslice_seconds"`
	WindowSeconds    float64 `json:"window_seconds"`
	OriginSeconds    float64 `json:"origin_seconds"`
	WatermarkSeconds float64 `json:"watermark_seconds"`
	FrontierSeconds  float64 `json:"frontier_seconds"`
	// LagSeconds is the ingest lag in virtual time: how far the watermark
	// has run ahead of the flushed frontier.
	LagSeconds float64 `json:"lag_seconds"`
	// Coverage is attributed / consumed over all flushed windows.
	Coverage float64 `json:"coverage"`

	Stats Stats `json:"stats"`

	OpenPhases  []OpenPhase             `json:"open_phases"`
	PhaseTypes  []TypeSummary           `json:"phase_types"`
	Instances   []InstanceSummary       `json:"instances"`
	Bottlenecks []BottleneckSummary     `json:"bottlenecks"`
	Counters    map[string]CounterValue `json:"counters,omitempty"`
	Windows     []*WindowResult         `json:"windows"`
}

// heatKey identifies one cell of the cumulative attribution heatmap:
// attributed consumption of one phase type on one (resource, machine)
// instance, summed across flushed windows.
type heatKey struct {
	TypePath string
	Machine  int
	Resource string
}

// HeatCell is one (phase type × machine × resource) cell of the cumulative
// attribution heatmap, the render-ready aggregate behind the visual
// profiler's /api/heatmap before finalization.
type HeatCell struct {
	TypePath    string  `json:"type_path"`
	Machine     int     `json:"machine"`
	Resource    string  `json:"resource"`
	UnitSeconds float64 `json:"unit_seconds"`
}

// HeatCells returns the cumulative per-(phase type, machine, resource)
// attributed consumption across flushed windows, sorted by (TypePath,
// Machine, Resource). The fold order is deterministic (windows flush in
// order; instances and usages iterate in the attribution profile's
// deterministic order), so the result is byte-identical at every
// parallelism.
func (e *Engine) HeatCells() []HeatCell {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]HeatCell, 0, len(e.heatAggs))
	for k, v := range e.heatAggs {
		out = append(out, HeatCell{TypePath: k.TypePath, Machine: k.Machine,
			Resource: k.Resource, UnitSeconds: v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Resource < b.Resource
	})
	return out
}

// foldWindowLocked turns one window's profile and bottleneck report into a
// WindowResult on the ring and folds it into the cumulative aggregates.
func (e *Engine) foldWindowLocked(win core.Timeslices, prof *attribution.Profile, rep *bottleneck.Report) *WindowResult {
	span := win.End.Sub(win.Start).Seconds()
	wr := &WindowResult{
		Index:        e.nextWindow,
		StartSeconds: win.Start.Seconds(),
		EndSeconds:   win.End.Seconds(),
		Slices:       win.Count,
	}

	var consumedAll, attributedAll float64
	for _, ip := range prof.Instances {
		consumed, attributed, unattributed := ip.Totals(win)
		capacity := ip.Instance.Resource.Capacity
		util := 0.0
		if capacity > 0 && span > 0 {
			util = consumed / (capacity * span)
		}
		key := ip.Instance.Key()
		sat := len(rep.Saturated[key])
		wr.Instances = append(wr.Instances, WindowInstance{
			Key: key, Capacity: capacity, Utilization: util,
			ConsumedUnitSeconds: consumed, AttributedUnitSeconds: attributed,
			UnattributedUnitSeconds: unattributed, SaturatedSlices: sat,
		})
		agg := e.instAggs[key]
		if agg == nil {
			agg = &instAgg{}
			e.instAggs[key] = agg
		}
		agg.consumed += consumed
		agg.attributed += attributed
		agg.unattributed += unattributed
		agg.satSeconds += float64(sat) * e.cfg.Timeslice.Seconds()
		agg.lastUtil = util
		agg.spanSeconds += span
		consumedAll += consumed
		attributedAll += attributed
		// Heatmap fold: attributed unit·seconds per (phase type, machine,
		// resource). Usage iterates in the profile's deterministic order, so
		// per-key accumulation is identical at every parallelism.
		for _, u := range ip.Usage {
			tp := "?"
			if u.Phase.Type != nil {
				tp = u.Phase.Type.Path()
			}
			hk := heatKey{TypePath: tp, Machine: ip.Instance.Machine,
				Resource: ip.Instance.Resource.Name}
			e.heatAggs[hk] += u.Total(win)
		}
	}
	if consumedAll > 0 {
		wr.Coverage = attributedAll / consumedAll
	}

	seenKeys := map[bottleneckKey]bool{}
	for _, b := range rep.Bottlenecks {
		tp := b.Phase.Path
		if b.Phase.Type != nil {
			tp = b.Phase.Type.Path()
		}
		wr.Bottlenecks = append(wr.Bottlenecks, WindowBottleneck{
			Path: b.Phase.Path, TypePath: tp, Resource: b.Resource,
			Machine: b.Machine, Kind: b.Kind.String(), Seconds: b.Time.Seconds(),
		})
		k := bottleneckKey{TypePath: tp, Resource: b.Resource, Kind: b.Kind}
		agg := e.btlAggs[k]
		if agg == nil {
			agg = &bottleneckAgg{}
			e.btlAggs[k] = agg
		}
		agg.Time += b.Time
		agg.Phases++
		if !seenKeys[k] {
			seenKeys[k] = true
			agg.Windows++
		}
	}

	e.windows = append(e.windows, wr)
	if over := len(e.windows) - e.cfg.MaxWindows; over > 0 {
		e.windows = append([]*WindowResult(nil), e.windows[over:]...)
	}
	e.stats.WindowsFlushed++
	return wr
}

// Stats returns the engine's counters, with the line-parser statistics
// merged in.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() Stats {
	st := e.stats
	ps := e.parser.Stats()
	st.Lines = int64(ps.Lines)
	st.ParseErrors = int64(ps.Skipped)
	st.Truncated += int64(ps.Truncated)
	return st
}

// Snapshot captures the live profile. The result shares no mutable state
// with the engine except the immutable WindowResult ring entries.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()

	snap := Snapshot{
		Finalized:        e.finalized,
		TimesliceSeconds: e.cfg.Timeslice.Seconds(),
		WindowSeconds:    e.windowDur().Seconds(),
		OriginSeconds:    e.origin.Seconds(),
		WatermarkSeconds: e.watermark.Seconds(),
		FrontierSeconds:  e.frontier.Seconds(),
		Stats:            e.statsLocked(),
		Windows:          append([]*WindowResult(nil), e.windows...),
	}
	if e.originSet && e.watermark > e.frontier {
		snap.LagSeconds = e.watermark.Sub(e.frontier).Seconds()
	}

	for path, ph := range e.open {
		tp := ""
		if ph.Type != nil {
			tp = ph.Type.Path()
		}
		snap.OpenPhases = append(snap.OpenPhases, OpenPhase{
			Path: path, TypePath: tp, Machine: ph.Machine,
			StartSeconds:   ph.Start.Seconds(),
			RunningSeconds: e.watermark.Sub(ph.Start).Seconds(),
		})
	}
	sort.Slice(snap.OpenPhases, func(i, j int) bool {
		return snap.OpenPhases[i].Path < snap.OpenPhases[j].Path
	})

	for tp, ta := range e.typeAggs {
		ts := TypeSummary{
			TypePath:     tp,
			Count:        ta.count,
			TotalSeconds: ta.total.Seconds(),
			MaxSeconds:   ta.max.Seconds(),
		}
		if ta.count > 0 {
			ts.MeanSeconds = ta.total.Seconds() / float64(ta.count)
		}
		if len(ta.blocked) > 0 {
			ts.BlockedSeconds = map[string]float64{}
			for res, d := range ta.blocked {
				ts.BlockedSeconds[res] = d.Seconds()
			}
		}
		snap.PhaseTypes = append(snap.PhaseTypes, ts)
	}
	sort.Slice(snap.PhaseTypes, func(i, j int) bool {
		return snap.PhaseTypes[i].TypePath < snap.PhaseTypes[j].TypePath
	})

	for key, agg := range e.instAggs {
		capacity := 0.0
		if f := e.feeds[key]; f != nil {
			capacity = f.capacity
		}
		is := InstanceSummary{
			Key: key, Capacity: capacity,
			LastWindowUtilization:   agg.lastUtil,
			ConsumedUnitSeconds:     agg.consumed,
			AttributedUnitSeconds:   agg.attributed,
			UnattributedUnitSeconds: agg.unattributed,
			SaturatedSeconds:        agg.satSeconds,
		}
		if capacity > 0 && agg.spanSeconds > 0 {
			is.Utilization = agg.consumed / (capacity * agg.spanSeconds)
		}
		if agg.consumed > 0 {
			is.Coverage = agg.attributed / agg.consumed
		}
		snap.Instances = append(snap.Instances, is)
	}
	sort.Slice(snap.Instances, func(i, j int) bool {
		return snap.Instances[i].Key < snap.Instances[j].Key
	})
	// Accumulate cluster coverage over the sorted instances, not the map
	// iteration: float addition order must not leak map randomization into
	// the snapshot (the UI view models are byte-identical by contract).
	var consumedAll, attributedAll float64
	for _, is := range snap.Instances {
		consumedAll += is.ConsumedUnitSeconds
		attributedAll += is.AttributedUnitSeconds
	}
	if consumedAll > 0 {
		snap.Coverage = attributedAll / consumedAll
	}

	for k, agg := range e.btlAggs {
		snap.Bottlenecks = append(snap.Bottlenecks, BottleneckSummary{
			TypePath: k.TypePath, Resource: k.Resource, Kind: k.Kind.String(),
			Seconds: agg.Time.Seconds(), Phases: agg.Phases, Windows: agg.Windows,
		})
	}
	sort.Slice(snap.Bottlenecks, func(i, j int) bool {
		a, b := snap.Bottlenecks[i], snap.Bottlenecks[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})

	if len(e.counters) > 0 {
		snap.Counters = map[string]CounterValue{}
		for name, c := range e.counters {
			snap.Counters[name] = *c
		}
	}
	return snap
}
