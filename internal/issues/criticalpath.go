package issues

import (
	"slices"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// CriticalStep is one leaf on the critical path with its replayed interval.
type CriticalStep struct {
	Phase *core.Phase
	Start vtime.Time
	End   vtime.Time
}

// CriticalPath extracts the chain of leaf phases that determines the
// replayed makespan: starting from the phase whose end equals the root end,
// it walks backward through whichever dependency (sibling precedence,
// sequential predecessor, or sync-group straggler) pinned each start. The
// paper's §VI groups critical-path analysis with Grade10 as complementary
// techniques; here it falls out of the replay scheduler directly.
//
// The result is ordered from the start of the execution to its end. Gaps are
// possible where a leaf's start was pinned by its parent's start rather than
// another leaf.
func CriticalPath(tr *core.ExecutionTrace) []CriticalStep {
	pl := compile(tr)
	cp := critical{pl, make([]vtime.Time, len(pl.slot))}
	makespan := vtime.Time(pl.run(cp.val, pl.intrinsic))

	// Find the leaf whose replayed end matches the makespan; among ties take
	// the lexicographically first for determinism.
	cur := int32(-1)
	for i := int32(1); i < int32(len(pl.phases)); i++ {
		if pl.size[i] == 1 && cp.end(i) == makespan &&
			(cur < 0 || pl.phases[i].Path < pl.phases[cur].Path) {
			cur = i
		}
	}
	// A sync-group leaf's coupled end may exceed every leaf's raw end only
	// when the group's straggler is itself a leaf, so cur is found whenever
	// the trace has leaves at all.
	if cur < 0 {
		return nil
	}

	var path []CriticalStep
	seen := make([]bool, len(pl.phases))
	for cur >= 0 && !seen[cur] {
		seen[cur] = true
		path = append(path, CriticalStep{Phase: pl.phases[cur], Start: cp.start(cur), End: cp.end(cur)})
		cur = cp.pinnedBy(cur)
	}
	slices.Reverse(path) // into execution order
	return path
}

// critical reads a replayed plan's node values by phase.
type critical struct {
	pl  *plan
	val []vtime.Time
}

func (c critical) start(i int32) vtime.Time { return c.val[c.pl.node[2*i]] }
func (c critical) raw(i int32) vtime.Time   { return c.val[c.pl.node[2*i+1]] }

func (c critical) end(i int32) vtime.Time {
	if g := c.pl.group[i]; g >= 0 {
		return c.val[c.pl.node[2*int32(len(c.pl.phases))+g]]
	}
	return c.raw(i)
}

// pinnedBy returns the leaf that determined p's (or its sync group's)
// schedule, or -1 when p starts with its ancestors at time zero.
func (c critical) pinnedBy(p int32) int32 {
	pl := c.pl
	// If p belongs to a sync group and its raw end is below the group end,
	// the straggling member is the real constraint.
	if g := pl.group[p]; g >= 0 {
		groupEnd := c.end(p)
		if c.raw(p) < groupEnd {
			for _, m := range pl.members[pl.groupOff[g]:pl.groupOff[g+1]] {
				if m != p && c.raw(m) == groupEnd {
					return c.deepestLeafEndingAt(m, groupEnd)
				}
			}
		}
	}
	// Otherwise walk up from p until an ancestor whose start was pinned by a
	// predecessor, and descend into the predecessor's latest leaf.
	for q := p; q >= 0; q = pl.parent[q] {
		start := c.start(q)
		if start == 0 {
			return -1
		}
		if par := pl.parent[q]; par >= 0 && c.start(par) == start {
			continue // inherited from the parent: keep climbing
		}
		if pred := c.predecessorEndingAt(q, start); pred >= 0 {
			return c.deepestLeafEndingAt(pred, start)
		}
	}
	return -1
}

// predecessorEndingAt finds the first sibling in child order (After edge or
// earlier sequential instance) whose replayed end equals q's start.
func (c critical) predecessorEndingAt(q int32, start vtime.Time) int32 {
	pl := c.pl
	par, typ := pl.parent[q], pl.phases[q].Type
	if par < 0 || typ == nil {
		return -1
	}
	for s := par + 1; s < par+pl.size[par]; s += pl.size[s] {
		sib := pl.phases[s].Type
		if s == q || sib == nil {
			continue
		}
		isPred := slices.Contains(typ.After, sib.Name) ||
			(sib == typ && pl.index[s] >= 0 && pl.index[s] < pl.index[q])
		if isPred && c.end(s) == start {
			return s
		}
	}
	return -1
}

// deepestLeafEndingAt descends from p to a leaf whose replayed end matches t.
func (c critical) deepestLeafEndingAt(p int32, t vtime.Time) int32 {
	pl := c.pl
	for pl.size[p] > 1 {
		next := int32(-1)
		for ch := p + 1; ch < p+pl.size[p]; ch += pl.size[ch] {
			if c.end(ch) == t && (next < 0 || pl.phases[ch].Path < pl.phases[next].Path) {
				next = ch
			}
		}
		if next < 0 {
			return p
		}
		p = next
	}
	return p
}
