package core

import (
	"cmp"
	"slices"
	"sort"

	"grade10/internal/vtime"
)

// blockSpan is one interval of a merged blocking list. before is the total
// length of the list's earlier spans, so coverage up to any instant is one
// binary search away.
type blockSpan struct {
	start, end vtime.Time
	before     vtime.Duration
}

// blockList is a sorted list of disjoint blocked intervals with prefix sums.
type blockList []blockSpan

// upTo returns the blocked time of l before t.
func (l blockList) upTo(t vtime.Time) vtime.Duration {
	i := sort.Search(len(l), func(i int) bool { return l[i].end > t })
	if i == len(l) {
		last := l[i-1]
		return last.before + last.end.Sub(last.start)
	}
	if s := l[i]; s.start < t {
		return s.before + t.Sub(s.start)
	}
	return l[i].before
}

// within returns the blocked time of l inside [t0, t1).
func (l blockList) within(t0, t1 vtime.Time) vtime.Duration {
	if len(l) == 0 || t1 <= t0 {
		return 0
	}
	return l.upTo(t1) - l.upTo(t0)
}

// blockIndex is one phase's effective blocking: its own intervals unioned
// with its ancestors', clipped to the phase's span. any covers every
// resource; byRes holds one list per resource name, sorted by name.
type blockIndex struct {
	any   blockList
	byRes []resBlockList
}

type resBlockList struct {
	resource string
	list     blockList
}

// noBlocking is the shared index of every phase without effective blocking,
// so such phases allocate nothing.
var noBlocking = &blockIndex{}

// list returns the effective blocking on the named resource (empty = any).
func (x *blockIndex) list(resource string) blockList {
	if resource == "" {
		return x.any
	}
	for i := range x.byRes {
		if x.byRes[i].resource == resource {
			return x.byRes[i].list
		}
	}
	return nil
}

// blocking returns p's blocked-interval index, building it and its
// ancestors' on first use. Concurrent callers may build the same index
// twice; the first stored copy wins and both are identical.
func (p *Phase) blocking() *blockIndex {
	if x := p.index.Load(); x != nil {
		return x
	}
	inherited := noBlocking
	if p.Parent != nil {
		inherited = p.Parent.blocking()
	}
	x := buildBlockIndex(p, inherited)
	if !p.index.CompareAndSwap(nil, x) {
		return p.index.Load()
	}
	return x
}

// InvalidateBlockIndex drops the blocked-interval index of p and of its
// descendants, whose indexes inherit p's. Call it after changing p's Start,
// End or Blocked once the phase may have been queried; BuildExecutionTrace
// output is never mutated and needs no call.
func (p *Phase) InvalidateBlockIndex() {
	// A descendant's index is only ever built after p's, so an unbuilt
	// phase has no built descendants.
	if p.index.Swap(nil) == nil {
		return
	}
	for _, c := range p.Children {
		c.InvalidateBlockIndex()
	}
}

// buildBlockIndex merges p's own blocking, sorted by start, with the
// inherited index of its parent and clips the result to p's span. A phase
// whose End precedes its Start is still open (the live engine keeps End at
// -1) and is clipped at its start only.
func buildBlockIndex(p *Phase, inherited *blockIndex) *blockIndex {
	lo, hi := p.Start, p.End
	if hi < lo {
		hi = vtime.Infinity
	}
	if lo == hi {
		return noBlocking
	}
	own := p.Blocked
	if len(own) == 0 && inherited.fits(lo, hi) {
		return inherited
	}
	byStart := func(a, b BlockInterval) int { return cmp.Compare(a.Start, b.Start) }
	if !slices.IsSortedFunc(own, byStart) { // an open phase in the live engine
		own = slices.Clone(own)
		slices.SortFunc(own, byStart)
	}
	anyList := mergeBlocked(own, "", inherited.any, lo, hi)
	if len(anyList) == 0 {
		return noBlocking
	}
	x := &blockIndex{any: anyList}
	var names []string
	for _, r := range inherited.byRes {
		names = append(names, r.resource)
	}
	for _, b := range own {
		if b.Resource != "" && !slices.Contains(names, b.Resource) {
			names = append(names, b.Resource)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if l := mergeBlocked(own, name, inherited.list(name), lo, hi); len(l) > 0 {
			x.byRes = append(x.byRes, resBlockList{resource: name, list: l})
		}
	}
	return x
}

// fits reports whether every span of x lies inside [lo, hi), so a phase
// without blocking of its own can share its parent's index.
func (x *blockIndex) fits(lo, hi vtime.Time) bool {
	return len(x.any) == 0 || (x.any[0].start >= lo && x.any[len(x.any)-1].end <= hi)
}

// mergeBlocked unions own's intervals on resource (empty = any) with the
// inherited list, both sorted by start, clipped to [lo, hi). Clipping keeps
// the start order, so one linear pass merges them.
func mergeBlocked(own []BlockInterval, resource string, inherited blockList, lo, hi vtime.Time) blockList {
	// Only inherited spans ending after lo and starting before hi survive.
	first := sort.Search(len(inherited), func(i int) bool { return inherited[i].end > lo })
	last := sort.Search(len(inherited), func(i int) bool { return inherited[i].start >= hi })
	inherited = inherited[first:last]
	if len(own) == 0 && len(inherited) == 0 {
		return nil
	}
	out := make(blockList, 0, len(own)+len(inherited))
	i := 0
	for _, b := range own {
		if resource != "" && b.Resource != resource {
			continue
		}
		for ; i < len(inherited) && inherited[i].start < b.Start; i++ {
			out = appendUnion(out, inherited[i].start, inherited[i].end, lo, hi)
		}
		out = appendUnion(out, b.Start, b.End, lo, hi)
	}
	for ; i < len(inherited); i++ {
		out = appendUnion(out, inherited[i].start, inherited[i].end, lo, hi)
	}
	var sum vtime.Duration
	for k := range out {
		out[k].before = sum
		sum += out[k].end.Sub(out[k].start)
	}
	return out
}

// appendUnion clips [s, e) to [lo, hi) and adds it to out, extending the
// last span when they touch. Calls must come in start order.
func appendUnion(out blockList, s, e, lo, hi vtime.Time) blockList {
	s, e = vtime.Max(s, lo), vtime.Min(e, hi)
	if e <= s {
		return out
	}
	if n := len(out); n > 0 && s <= out[n-1].end {
		if e > out[n-1].end {
			out[n-1].end = e
		}
		return out
	}
	return append(out, blockSpan{start: s, end: e})
}
