// Package issues implements Grade10's performance-issue detection (§III-F of
// the paper). A simplified replay simulator re-executes the captured trace
// with fixed phase durations under the execution model's precedence
// constraints; issue detectors perturb leaf durations (removing a resource
// bottleneck, balancing concurrent phases) and compare the optimistic
// makespan against the replayed original, yielding an upper bound on the
// gain from fixing each issue.
package issues

import (
	"sort"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Durations maps leaf phases to (possibly modified) durations. Leaves absent
// from the map keep their intrinsic duration: the recorded duration, minus
// the recorded synchronization wait for leaves of SyncGroup types (the
// replay re-derives those waits from the slowest group member).
type Durations map[*core.Phase]vtime.Duration

// Replay schedules the trace under the paper's simplified system model:
//
//   - each leaf runs for its (possibly modified) duration with no
//     inter-phase delays;
//   - sibling order follows the execution model's After edges, and instances
//     of Sequential types run in index order;
//   - non-leaf phases span their children;
//   - all instances of a SyncGroup type under the same sequential ancestor
//     end together, at the latest member's end — the cluster-wide barriers
//     and exchange joins of the BSP/GAS engines.
//
// It returns the simulated makespan (root end, with the root starting at
// zero).
func Replay(tr *core.ExecutionTrace, durs Durations) vtime.Duration {
	pl := compile(tr)
	b := pl.buffer()
	defer bufPool.Put(b)
	if len(durs) > 0 {
		for s, leaf := range pl.leaves {
			if d, ok := durs[leaf]; ok {
				b.durs[s] = max(d, 0)
			}
		}
	}
	return pl.run(b.val, b.durs)
}

// Intrinsic returns a phase's replay duration before synchronization: the
// recorded duration, minus its own recorded waits when the type's waits are
// elastic (SyncGroup or ElasticWaits — barriers and drain phases whose waits
// are consequences of other phases).
func Intrinsic(p *core.Phase) vtime.Duration {
	d := p.Duration()
	if p.Type != nil && (p.Type.SyncGroup || p.Type.ElasticWaits) {
		d -= p.BlockedTime("")
	}
	if d < 0 {
		return 0
	}
	return d
}

// RecordedDurations returns the durations of all leaves as recorded in the
// trace (without the sync-wait stripping the replay applies by default).
func RecordedDurations(tr *core.ExecutionTrace) Durations {
	durs := Durations{}
	for _, leaf := range tr.Leaves() {
		durs[leaf] = leaf.Duration()
	}
	return durs
}

// concurrencyGroup returns the grouping key for imbalance analysis: phases of
// the same type under the same nearest Sequential (or root) ancestor are
// considered interchangeable — e.g. all gather threads of one iteration,
// across workers, but never across iterations (§III-F).
func concurrencyGroup(p *core.Phase) string {
	anchor := "/"
	for q := p.Parent; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			anchor = q.Path
			break
		}
	}
	return anchor + "|" + p.Type.Path()
}

// Groups partitions the trace's leaves into concurrency groups, keyed as
// described at concurrencyGroup. Groups are sorted by key; members by path.
func Groups(tr *core.ExecutionTrace) []Group {
	groups, _ := groupsOf(tr.Leaves())
	return groups
}

// groupsOf is Groups over a trace's leaves; slots[g][j] is the position in
// leaves of groups[g].Members[j].
func groupsOf(leaves []*core.Phase) (groups []Group, slots [][]int32) {
	byKey := map[string][]int32{}
	for s, leaf := range leaves {
		key := concurrencyGroup(leaf)
		byKey[key] = append(byKey[key], int32(s))
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ss := byKey[k]
		sort.Slice(ss, func(i, j int) bool { return leaves[ss[i]].Path < leaves[ss[j]].Path })
		members := make([]*core.Phase, len(ss))
		for j, s := range ss {
			members[j] = leaves[s]
		}
		groups = append(groups, Group{Key: k, TypePath: members[0].Type.Path(), Members: members})
		slots = append(slots, ss)
	}
	return groups, slots
}

// Group is a set of interchangeable concurrent phases.
type Group struct {
	Key      string
	TypePath string
	Members  []*core.Phase
}

// TotalDuration sums the members' durations.
func (g Group) TotalDuration() vtime.Duration {
	var total vtime.Duration
	for _, m := range g.Members {
		total += m.Duration()
	}
	return total
}

// MaxDuration returns the longest member duration.
func (g Group) MaxDuration() vtime.Duration {
	var maxD vtime.Duration
	for _, m := range g.Members {
		if d := m.Duration(); d > maxD {
			maxD = d
		}
	}
	return maxD
}
