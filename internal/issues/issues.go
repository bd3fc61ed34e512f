package issues

import (
	"fmt"
	"sort"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/obs"
	"grade10/internal/par"
	"grade10/internal/vtime"
)

// IssueKind classifies detected performance issues.
type IssueKind int

const (
	// BottleneckImpact estimates the makespan gain from removing every
	// bottleneck on one resource.
	BottleneckImpact IssueKind = iota
	// ImbalanceImpact estimates the gain from perfectly balancing concurrent
	// phases of one type.
	ImbalanceImpact
)

// String implements fmt.Stringer.
func (k IssueKind) String() string {
	switch k {
	case BottleneckImpact:
		return "bottleneck"
	case ImbalanceImpact:
		return "imbalance"
	default:
		return "unknown"
	}
}

// Issue is one detected performance issue with its estimated impact.
type Issue struct {
	Kind IssueKind
	// Resource is set for BottleneckImpact.
	Resource string
	// PhaseType is set for ImbalanceImpact.
	PhaseType string
	// Original is the replayed makespan of the recorded trace; Optimistic
	// the makespan with the issue hypothetically fixed.
	Original   vtime.Duration
	Optimistic vtime.Duration
	// Impact is 1 − Optimistic/Original: the paper's upper bound on the
	// achievable makespan reduction.
	Impact float64
	// Trail is the replay-delta evidence: which leaf phase types had their
	// hypothetical durations changed by the what-if replay behind this
	// issue, aggregated per type, largest savings first (capped at
	// maxTrailEntries).
	Trail []TrailEntry
}

// TrailEntry aggregates the replay deltas of one leaf phase type.
type TrailEntry struct {
	// TypePath identifies the leaf phase type.
	TypePath string
	// Phases counts the phase instances whose duration the what-if replay
	// changed.
	Phases int
	// DeltaNS is the summed duration change in virtual nanoseconds
	// (negative = the hypothesis shortens these phases).
	DeltaNS int64
}

// maxTrailEntries caps an issue's trail; the untruncated evidence is
// reachable through the explain engine.
const maxTrailEntries = 8

// Describe renders a one-line summary.
func (i Issue) Describe() string {
	switch i.Kind {
	case BottleneckImpact:
		return fmt.Sprintf("removing %s bottlenecks could reduce makespan by up to %.1f%% (%v → %v)",
			i.Resource, i.Impact*100, i.Original, i.Optimistic)
	case ImbalanceImpact:
		return fmt.Sprintf("balancing %s phases could reduce makespan by up to %.1f%% (%v → %v)",
			i.PhaseType, i.Impact*100, i.Original, i.Optimistic)
	default:
		return "unknown issue"
	}
}

// Outlier is a straggler within a set of same-worker sibling phases: the
// §IV-D signature that exposed PowerGraph's synchronization bug.
type Outlier struct {
	// Phase is the straggling phase.
	Phase *core.Phase
	// Group is the parent path (e.g. one worker's gather step).
	Group string
	// Ratio is the phase duration over the mean of its siblings.
	Ratio float64
	// StepSlowdown is the concurrency group's max duration over the max
	// duration excluding outliers: how much the whole step is delayed.
	StepSlowdown float64
}

// Config tunes issue detection.
type Config struct {
	// MinImpact suppresses issues below this makespan fraction.
	// Default 0.01.
	MinImpact float64
	// OutlierFactor: a phase is an outlier if it exceeds the mean of its
	// same-parent siblings by this factor. Default 2.0.
	OutlierFactor float64
	// MinOutlierGroupDuration ignores groups whose longest member is shorter
	// than this (the paper analyzes "non-trivial processing steps" >1s).
	// Default 1s.
	MinOutlierGroupDuration vtime.Duration
	// BottleneckFloor is the minimum per-slice time fraction left after
	// removing a bottleneck (the next-limiting-resource estimate cannot
	// shrink a slice below this). Default 0.05.
	BottleneckFloor float64
	// UnderutilizationThreshold is the utilization fraction below which an
	// active slice counts as underutilized. Default 0.5.
	UnderutilizationThreshold float64
	// Parallelism is the worker count for the per-candidate replay
	// simulations (one replay per bottleneck-removal or imbalance
	// hypothesis). 0 takes par.Default(); 1 runs serially. The report is
	// identical for every value.
	Parallelism int
	// Tracer receives one self-trace span per candidate replay. Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
}

// DefaultConfig returns the default thresholds.
func DefaultConfig() Config {
	return Config{MinImpact: 0.01, OutlierFactor: 2.0,
		MinOutlierGroupDuration: vtime.Second, BottleneckFloor: 0.05}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.MinImpact == 0 {
		c.MinImpact = d.MinImpact
	}
	if c.OutlierFactor == 0 {
		c.OutlierFactor = d.OutlierFactor
	}
	if c.MinOutlierGroupDuration == 0 {
		c.MinOutlierGroupDuration = d.MinOutlierGroupDuration
	}
	if c.BottleneckFloor == 0 {
		c.BottleneckFloor = d.BottleneckFloor
	}
	if c.UnderutilizationThreshold == 0 {
		c.UnderutilizationThreshold = 0.5
	}
}

// Report is the issue-detection result.
type Report struct {
	// Issues sorted by descending impact.
	Issues []Issue
	// Outliers sorted by descending step slowdown.
	Outliers []Outlier
	// Underutilization summarizes slices where work ran without pressuring
	// any resource.
	Underutilization Underutilization
	// Burstiness per resource instance, sorted by descending variability.
	Burstiness []Burstiness
	// Original is the replayed makespan of the unmodified trace.
	Original vtime.Duration
}

// Analyze runs all §III-F detectors: per-resource bottleneck removal,
// per-type imbalance, and straggler detection. The trace is compiled into
// one replay plan; the candidate-issue replays are independent of each
// other — each perturbs the leaf durations in its own buffer and re-runs the
// shared plan — so they run on cfg.Parallelism workers; results
// land in a pre-sized slice indexed by candidate and are filtered in order,
// keeping the report identical to a serial run.
func Analyze(prof *attribution.Profile, btl *bottleneck.Report, cfg Config) *Report {
	cfg.fill()
	pl := compile(prof.Trace)
	base := pl.buffer()
	rep := &Report{Original: pl.run(base.val, base.durs)}
	bufPool.Put(base)

	groups, slots := groupsOf(pl.leaves)
	resources := bottleneckResources(prof, btl)
	typePaths := groupTypePaths(groups)

	type candidate struct {
		kind IssueKind
		name string // resource or type path
	}
	cands := make([]candidate, 0, len(resources)+len(typePaths))
	for _, res := range resources {
		cands = append(cands, candidate{BottleneckImpact, res})
	}
	for _, tp := range typePaths {
		cands = append(cands, candidate{ImbalanceImpact, tp})
	}

	results := make([]Issue, len(cands))
	par.DoWithWorker(len(cands), cfg.Parallelism, func(worker, i int) {
		c := cands[i]
		span := cfg.Tracer.StartSpan("issue-replay", worker)
		if cfg.Tracer.Enabled() {
			span.SetDetail(c.kind.String() + ":" + c.name)
		}
		issue := Issue{Kind: c.kind, Original: rep.Original}
		b := pl.buffer()
		switch c.kind {
		case BottleneckImpact:
			issue.Resource = c.name
			removeBottleneck(prof, btl, pl, c.name, cfg, b)
		case ImbalanceImpact:
			issue.PhaseType = c.name
			balanceType(pl, groups, slots, c.name, b)
		}
		issue.Optimistic = pl.run(b.val, b.durs)
		issue.Impact = impact(rep.Original, issue.Optimistic)
		issue.Trail = trailOf(pl, b)
		bufPool.Put(b)
		results[i] = issue
		span.End()
	})
	rep.Issues = make([]Issue, 0, len(results))
	for _, issue := range results {
		if issue.Impact >= cfg.MinImpact {
			rep.Issues = append(rep.Issues, issue)
		}
	}

	rep.Outliers = detectOutliers(groups, cfg)
	rep.Underutilization = detectUnderutilization(prof, pl.leaves, cfg.UnderutilizationThreshold)
	rep.Burstiness = DetectBurstiness(prof)

	sort.Slice(rep.Issues, func(i, j int) bool { return rep.Issues[i].Impact > rep.Issues[j].Impact })
	return rep
}

// trailOf aggregates a what-if replay's duration deltas per leaf phase
// type: the evidence of which work the hypothesis actually shortened.
// Deterministic: sorted by delta ascending (largest savings first), then
// type path, and capped at maxTrailEntries.
func trailOf(pl *plan, b *replayBuf) []TrailEntry {
	byType := map[string]*TrailEntry{}
	for _, s := range b.changed {
		leaf := pl.leaves[s]
		tp := "(untyped)"
		if leaf.Type != nil {
			tp = leaf.Type.Path()
		}
		e := byType[tp]
		if e == nil {
			e = &TrailEntry{TypePath: tp}
			byType[tp] = e
		}
		e.Phases++
		e.DeltaNS += int64(b.durs[s] - pl.intrinsic[s])
	}
	out := make([]TrailEntry, 0, len(byType))
	for _, e := range byType {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeltaNS != out[j].DeltaNS {
			return out[i].DeltaNS < out[j].DeltaNS
		}
		return out[i].TypePath < out[j].TypePath
	})
	if len(out) > maxTrailEntries {
		out = out[:maxTrailEntries]
	}
	return out
}

func impact(orig, opt vtime.Duration) float64 {
	if orig <= 0 {
		return 0
	}
	f := 1 - float64(opt)/float64(orig)
	if f < 0 {
		return 0
	}
	return f
}

// bottleneckResources lists resource names with at least one bottleneck,
// sorted.
func bottleneckResources(prof *attribution.Profile, btl *bottleneck.Report) []string {
	seen := map[string]bool{}
	for _, b := range btl.Bottlenecks {
		seen[b.Resource] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// removeBottleneck sets in buf the optimistic leaf durations with all
// bottlenecks on resource res eliminated: blocking time on res vanishes, and
// slices where the phase was bottlenecked on res shrink to what the
// next-limiting resource allows (§III-F, "how much shorter a phase could
// become until another resource becomes bottlenecked").
func removeBottleneck(prof *attribution.Profile, btl *bottleneck.Report,
	pl *plan, res string, cfg Config, buf *replayBuf) {
	slices := prof.Slices
	limiters := map[limiterKey][]*attribution.InstanceProfile{}
	for s, leaf := range pl.leaves {
		newDur := pl.intrinsic[s]
		// Blocking bottlenecks on res disappear entirely — including stalls
		// inherited from ancestors (a GC pause logged on the worker phase
		// stalls every thread under it). Waits already stripped as elastic
		// must not be subtracted twice.
		removable := leaf.BlockedWithin(res, leaf.Start, leaf.End)
		if leaf.Type != nil && (leaf.Type.SyncGroup || leaf.Type.ElasticWaits) {
			removable -= leaf.BlockedTime(res)
		}
		if removable > 0 {
			newDur -= removable
		}
		// Consumable bottlenecks: shrink affected slices.
		for _, b := range btl.ForPhase(leaf) {
			if b.Resource != res || b.Kind == bottleneck.Blocking {
				continue
			}
			for _, k := range b.Slices {
				t0, t1 := slices.Bounds(k)
				active := leaf.ActiveTime(t0, t1)
				if active <= 0 {
					continue
				}
				key := limiterKey{leaf.Type, leaf.Machine}
				insts, ok := limiters[key]
				if !ok {
					insts = nextLimiters(prof, leaf, res)
					limiters[key] = insts
				}
				limit := nextLimit(insts, k)
				if limit < cfg.BottleneckFloor {
					limit = cfg.BottleneckFloor
				}
				saved := vtime.Duration(float64(active) * (1 - limit))
				newDur -= saved
			}
		}
		if newDur < 0 {
			newDur = 0
		}
		if newDur != pl.intrinsic[s] {
			buf.set(s, newDur)
		}
	}
}

// limiterKey groups the leaves that share nextLimiters' result.
type limiterKey struct {
	typ     *core.PhaseType
	machine int
}

// nextLimiters lists the profile instances, other than res, that a leaf of
// this type on this machine uses: the candidates for its next-limiting
// resource.
func nextLimiters(prof *attribution.Profile, leaf *core.Phase, res string) []*attribution.InstanceProfile {
	var out []*attribution.InstanceProfile
	for _, ip := range prof.Instances {
		if ip.Instance.Resource.Name == res {
			continue
		}
		if ip.Instance.Resource.PerMachine && ip.Instance.Machine != leaf.Machine {
			continue
		}
		if prof.Rules.Get(leaf.Type.Path(), ip.Instance.Resource.Name).Kind == core.RuleNone {
			continue
		}
		out = append(out, ip)
	}
	return out
}

// nextLimit estimates, for a phase bottlenecked on a resource during slice
// k, the utilization fraction of the most-loaded other resource the phase
// uses in that slice (insts, from nextLimiters) — the fraction of the slice
// the phase would still need if the bottleneck were infinitely fast.
func nextLimit(insts []*attribution.InstanceProfile, k int) float64 {
	maxUtil := 0.0
	for _, ip := range insts {
		if u := ip.Consumption[k] / ip.Instance.Resource.Capacity; u > maxUtil {
			maxUtil = u
		}
	}
	if maxUtil > 1 {
		maxUtil = 1
	}
	return maxUtil
}

func groupTypePaths(groups []Group) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range groups {
		if len(g.Members) > 1 && !seen[g.TypePath] {
			seen[g.TypePath] = true
			out = append(out, g.TypePath)
		}
	}
	sort.Strings(out)
	return out
}

// balanceType sets in b every member of each concurrency group of the given
// type to the group's mean intrinsic duration, preserving total work
// (§III-F). slots holds the groups' member slots, as from groupsOf.
func balanceType(pl *plan, groups []Group, slots [][]int32, typePath string, b *replayBuf) {
	for g, grp := range groups {
		if grp.TypePath != typePath || len(grp.Members) < 2 {
			continue
		}
		var total vtime.Duration
		for _, s := range slots[g] {
			total += pl.intrinsic[s]
		}
		mean := total / vtime.Duration(len(slots[g]))
		for _, s := range slots[g] {
			b.set(int(s), mean)
		}
	}
}

// DetectOutliers finds stragglers: members of a concurrency group whose
// duration exceeds OutlierFactor × the mean of their same-parent siblings
// (thread-level outliers within one worker, as in the paper's Figure 6).
// StepSlowdown compares the group maximum against the maximum with outliers
// excluded.
func DetectOutliers(tr *core.ExecutionTrace, cfg Config) []Outlier {
	cfg.fill()
	return detectOutliers(Groups(tr), cfg)
}

// detectOutliers is DetectOutliers over the trace's concurrency groups.
func detectOutliers(groups []Group, cfg Config) []Outlier {
	var out []Outlier
	for _, g := range groups {
		if len(g.Members) < 2 || g.MaxDuration() < cfg.MinOutlierGroupDuration {
			continue
		}
		// Sub-group members by parent (per-worker threads).
		byParent := map[*core.Phase][]*core.Phase{}
		for _, m := range g.Members {
			byParent[m.Parent] = append(byParent[m.Parent], m)
		}
		var outliers []*core.Phase
		isOutlier := map[*core.Phase]bool{}
		for _, sibs := range byParent {
			if len(sibs) < 2 {
				continue
			}
			var total vtime.Duration
			for _, s := range sibs {
				total += s.Duration()
			}
			for _, s := range sibs {
				others := (total - s.Duration()) / vtime.Duration(len(sibs)-1)
				if others > 0 && float64(s.Duration()) > cfg.OutlierFactor*float64(others) {
					outliers = append(outliers, s)
					isOutlier[s] = true
				}
			}
		}
		if len(outliers) == 0 {
			continue
		}
		var maxAll, maxClean vtime.Duration
		for _, m := range g.Members {
			if d := m.Duration(); d > maxAll {
				maxAll = d
			}
			if !isOutlier[m] {
				if d := m.Duration(); d > maxClean {
					maxClean = d
				}
			}
		}
		slowdown := 1.0
		if maxClean > 0 {
			slowdown = float64(maxAll) / float64(maxClean)
		}
		for _, o := range outliers {
			var total vtime.Duration
			sibs := byParent[o.Parent]
			for _, s := range sibs {
				total += s.Duration()
			}
			mean := (total - o.Duration()) / vtime.Duration(len(sibs)-1)
			ratio := 0.0
			if mean > 0 {
				ratio = float64(o.Duration()) / float64(mean)
			}
			out = append(out, Outlier{
				Phase: o, Group: o.Parent.Path, Ratio: ratio, StepSlowdown: slowdown,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StepSlowdown != out[j].StepSlowdown {
			return out[i].StepSlowdown > out[j].StepSlowdown
		}
		return out[i].Phase.Path < out[j].Phase.Path
	})
	return out
}
