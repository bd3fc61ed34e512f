package issues

// The recursive, map-memoized replay scheduler and critical-path walk that
// the compiled plan replaced, kept unchanged as the oracle the plan is
// checked against, together with the slices × leaves underutilization scan.

import (
	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// replayOracle returns the oracle's scheduler over tr with durations durs.
func replayOracle(tr *core.ExecutionTrace, durs Durations) *replay {
	r := &replay{
		durs:   durs,
		start:  map[*core.Phase]vtime.Time{},
		end:    map[*core.Phase]vtime.Time{},
		sync:   map[string]vtime.Time{},
		groups: map[string][]*core.Phase{},
	}
	r.index(tr.Root)
	return r
}

type replay struct {
	durs  Durations
	start map[*core.Phase]vtime.Time
	end   map[*core.Phase]vtime.Time
	// sync maps a sync-group key to the group's common end.
	sync   map[string]vtime.Time
	groups map[string][]*core.Phase
}

// index collects sync groups ahead of scheduling.
func (r *replay) index(root *core.Phase) {
	root.Walk(func(p *core.Phase) {
		if p.Type != nil && p.Type.SyncGroup {
			key := syncKey(p)
			r.groups[key] = append(r.groups[key], p)
		}
	})
}

// syncKey anchors a sync-group instance to its nearest sequential ancestor.
func syncKey(p *core.Phase) string {
	anchor := "/"
	for q := p.Parent; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			anchor = q.Path
			break
		}
	}
	return anchor + "|" + p.Type.Path()
}

func (r *replay) intrinsic(p *core.Phase) vtime.Duration {
	if d, ok := r.durs[p]; ok {
		if d < 0 {
			return 0
		}
		return d
	}
	return Intrinsic(p)
}

// startOf computes the replayed start of p: after its parent's start, its
// After-siblings, and the previous instance of its sequential type.
func (r *replay) startOf(p *core.Phase) vtime.Time {
	if t, ok := r.start[p]; ok {
		return t
	}
	var t vtime.Time
	if p.Parent != nil {
		t = r.startOf(p.Parent)
		// Sibling precedence.
		if p.Type != nil {
			after := map[string]bool{}
			for _, a := range p.Type.After {
				after[a] = true
			}
			var prevSeq *core.Phase
			for _, sib := range p.Parent.Children {
				if sib == p || sib.Type == nil {
					continue
				}
				if after[sib.Type.Name] {
					if e := r.endOf(sib); e > t {
						t = e
					}
				}
				if p.Type.Sequential && sib.Type == p.Type &&
					sib.Index() >= 0 && sib.Index() < p.Index() {
					if prevSeq == nil || sib.Index() > prevSeq.Index() {
						prevSeq = sib
					}
				}
			}
			if prevSeq != nil {
				if e := r.endOf(prevSeq); e > t {
					t = e
				}
			}
		}
	}
	r.start[p] = t
	return t
}

// endOf computes the replayed end of p, including sync-group coupling.
func (r *replay) endOf(p *core.Phase) vtime.Time {
	if t, ok := r.end[p]; ok {
		return t
	}
	var t vtime.Time
	if p.Type != nil && p.Type.SyncGroup {
		t = r.syncEnd(syncKey(p))
	} else {
		t = r.rawEnd(p)
	}
	r.end[p] = t
	return t
}

// rawEnd is the end of p ignoring sync coupling.
func (r *replay) rawEnd(p *core.Phase) vtime.Time {
	start := r.startOf(p)
	if len(p.Children) == 0 {
		return start.Add(r.intrinsic(p))
	}
	end := start
	for _, c := range p.Children {
		if e := r.endOf(c); e > end {
			end = e
		}
	}
	return end
}

// syncEnd is the common end of a sync group: the latest member's raw end.
func (r *replay) syncEnd(key string) vtime.Time {
	if t, ok := r.sync[key]; ok {
		return t
	}
	var t vtime.Time
	for _, m := range r.groups[key] {
		if e := r.rawEnd(m); e > t {
			t = e
		}
	}
	r.sync[key] = t
	return t
}

func criticalPathOracle(tr *core.ExecutionTrace) []CriticalStep {
	r := &replay{
		start:  map[*core.Phase]vtime.Time{},
		end:    map[*core.Phase]vtime.Time{},
		sync:   map[string]vtime.Time{},
		groups: map[string][]*core.Phase{},
	}
	r.index(tr.Root)
	makespan := r.endOf(tr.Root)

	// Find the leaf whose replayed end matches the makespan; among ties take
	// the lexicographically first for determinism.
	var cur *core.Phase
	for _, leaf := range tr.Leaves() {
		if r.endOf(leaf) == makespan {
			if cur == nil || leaf.Path < cur.Path {
				cur = leaf
			}
		}
	}
	// A sync-group leaf's coupled end may exceed every leaf's raw end only
	// when the group's straggler is itself a leaf, so cur is found whenever
	// the trace has leaves at all.
	if cur == nil {
		return nil
	}

	var path []CriticalStep
	seen := map[*core.Phase]bool{}
	for cur != nil && !seen[cur] {
		seen[cur] = true
		path = append(path, CriticalStep{Phase: cur, Start: r.startOf(cur), End: r.endOf(cur)})
		cur = r.pinnedBy(cur)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// pinnedBy returns the leaf that determined p's (or its sync group's)
// schedule, or nil when p starts with its ancestors at time zero.
func (r *replay) pinnedBy(p *core.Phase) *core.Phase {
	// If p belongs to a sync group and its raw end is below the group end,
	// the straggling member is the real constraint.
	if p.Type != nil && p.Type.SyncGroup {
		key := syncKey(p)
		groupEnd := r.syncEnd(key)
		if r.rawEnd(p) < groupEnd {
			for _, m := range r.groups[key] {
				if m != p && r.rawEnd(m) == groupEnd {
					return r.deepestLeafEndingAt(m, groupEnd)
				}
			}
		}
	}
	// Otherwise walk up from p until an ancestor whose start was pinned by a
	// predecessor, and descend into the predecessor's latest leaf.
	for q := p; q != nil; q = q.Parent {
		start := r.startOf(q)
		if start == 0 {
			return nil
		}
		if q.Parent != nil && r.startOf(q.Parent) == start {
			continue // inherited from the parent: keep climbing
		}
		pred := r.predecessorEndingAt(q, start)
		if pred != nil {
			return r.deepestLeafEndingAt(pred, start)
		}
	}
	return nil
}

// predecessorEndingAt finds the sibling (After edge or sequential
// predecessor) whose replayed end equals q's start.
func (r *replay) predecessorEndingAt(q *core.Phase, start vtime.Time) *core.Phase {
	if q.Parent == nil || q.Type == nil {
		return nil
	}
	after := map[string]bool{}
	for _, a := range q.Type.After {
		after[a] = true
	}
	for _, sib := range q.Parent.Children {
		if sib == q || sib.Type == nil {
			continue
		}
		isPred := after[sib.Type.Name] ||
			(q.Type.Sequential && sib.Type == q.Type && sib.Index() >= 0 && sib.Index() < q.Index())
		if isPred && r.endOf(sib) == start {
			return sib
		}
	}
	return nil
}

// deepestLeafEndingAt descends from p to a leaf whose replayed end matches t.
func (r *replay) deepestLeafEndingAt(p *core.Phase, t vtime.Time) *core.Phase {
	for len(p.Children) > 0 {
		var next *core.Phase
		for _, c := range p.Children {
			if r.endOf(c) == t {
				if next == nil || c.Path < next.Path {
					next = c
				}
			}
		}
		if next == nil {
			return p
		}
		p = next
	}
	return p
}

// underutilizationOracle is DetectUnderutilization as a scan of every leaf
// in every slice.
func underutilizationOracle(prof *attribution.Profile, threshold float64) Underutilization {
	if threshold <= 0 {
		threshold = 0.5
	}
	u := Underutilization{Threshold: threshold}
	slices := prof.Slices
	leaves := prof.Trace.Leaves()
	var span vtime.Duration
	for k := 0; k < slices.Count; k++ {
		t0, t1 := slices.Bounds(k)
		span += t1.Sub(t0)
		active := false
		for _, leaf := range leaves {
			if leaf.ActiveTime(t0, t1) > 0 {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		busy := false
		for _, ip := range prof.Instances {
			if ip.Consumption[k] >= threshold*ip.Instance.Resource.Capacity {
				busy = true
				break
			}
		}
		if !busy {
			u.Slices = append(u.Slices, k)
			u.Time += t1.Sub(t0)
		}
	}
	if span > 0 {
		u.Fraction = u.Time.Seconds() / span.Seconds()
	}
	return u
}
