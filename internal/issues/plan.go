package issues

import (
	"fmt"
	"slices"
	"sync"

	"grade10/internal/core"
	"grade10/internal/vtime"
)

// plan is an execution trace compiled for replay. Every replayed time is a
// node whose value is the maximum of its dependency nodes' values, plus a
// leaf duration on leaf end nodes:
//
//   - the start of a phase depends on its parent's start, the ends of its
//     After siblings, and the end of the previous instance of its
//     Sequential type;
//   - the raw end of a leaf is its start plus its duration; the raw end of
//     any other phase depends on its start and its children's ends;
//   - the end of a sync group depends on its members' raw ends.
//
// A phase's end is its sync group's end for SyncGroup types, its raw end
// otherwise. Nodes are stored in one topological order, so a replay under
// any leaf durations is a single pass over that order. A plan is read-only
// once compiled: concurrent replays share it and bring their own buffers.
type plan struct {
	// phases lists the trace in Walk order; the root is phase 0. Phase i's
	// children are i+1, i+1+size[i+1], … up to i+size[i].
	phases []*core.Phase
	parent []int32 // -1 for the root
	size   []int32 // subtree size
	// index is the instance index of phases of Sequential types, else -1.
	index []int32
	// group is each phase's sync group, or -1; group g's members are
	// members[groupOff[g]:groupOff[g+1]], in Walk order.
	group    []int32
	groupOff []int32
	members  []int32
	// node maps phase i's start to node node[2i], its raw end to
	// node[2i+1], and sync group g's end to node[2·len(phases)+g].
	node []int32
	// For node n: its dependencies deps[depOff[n]:depOff[n+1]] (all below
	// n), and the slot of the leaf whose duration it adds, or -1.
	depOff []int32
	deps   []int32
	slot   []int32
	// leaves are the trace's leaves in Walk order; slot s is leaves[s],
	// whose duration before any what-if is intrinsic[s].
	leaves    []*core.Phase
	intrinsic []vtime.Duration
}

// compile builds the replay plan of a trace. It panics if the dependencies
// form a cycle, which only a model that is both Sequential and SyncGroup
// on one type can produce.
func compile(tr *core.ExecutionTrace) *plan {
	n := len(tr.ByPath) + 1
	c := &compiler{plan: plan{
		phases: make([]*core.Phase, 0, n),
		parent: make([]int32, 0, n),
		size:   make([]int32, 0, n),
		index:  make([]int32, 0, n),
	}, anchor: make([]int32, 0, n)}
	c.walk(tr.Root, -1, -1)
	c.syncGroups()
	c.prevSequential()
	c.order()
	c.leafSlots()
	pl := c.plan
	return &pl
}

// compiler holds the plan under construction and compile-only tables.
type compiler struct {
	plan
	// anchor is each phase's nearest strict ancestor of a Sequential type,
	// or -1: sync-group instances sharing a type and an anchor end
	// together.
	anchor []int32
	// prevSeq is the previous instance of each phase's Sequential type
	// among its siblings, or -1.
	prevSeq []int32
}

func (c *compiler) walk(p *core.Phase, parent, anchor int32) {
	id := int32(len(c.phases))
	index := int32(-1)
	sequential := p.Type != nil && p.Type.Sequential
	if sequential {
		index = int32(p.Index())
	}
	c.phases = append(c.phases, p)
	c.parent = append(c.parent, parent)
	c.size = append(c.size, 0)
	c.index = append(c.index, index)
	c.anchor = append(c.anchor, anchor)
	if sequential {
		anchor = id
	}
	for _, ch := range p.Children {
		c.walk(ch, id, anchor)
	}
	c.size[id] = int32(len(c.phases)) - id
}

// syncGroups groups the instances of each SyncGroup type by anchor.
func (c *compiler) syncGroups() {
	type syncKey struct {
		anchor int32
		typ    *core.PhaseType
	}
	ids := map[syncKey]int32{}
	c.group = make([]int32, len(c.phases))
	var count []int32
	for i, p := range c.phases {
		c.group[i] = -1
		if p.Type == nil || !p.Type.SyncGroup {
			continue
		}
		k := syncKey{c.anchor[i], p.Type}
		g, ok := ids[k]
		if !ok {
			g = int32(len(count))
			ids[k] = g
			count = append(count, 0)
		}
		c.group[i] = g
		count[g]++
	}
	c.groupOff = make([]int32, len(count)+1)
	for g, k := range count {
		c.groupOff[g+1] = c.groupOff[g] + k
	}
	c.members = make([]int32, c.groupOff[len(count)])
	next := slices.Clone(c.groupOff[:len(count)])
	for i, g := range c.group {
		if g >= 0 {
			c.members[next[g]] = int32(i)
			next[g]++
		}
	}
}

// prevSequential finds each Sequential instance's predecessor: the sibling
// of the same type with the largest lower non-negative index, the first in
// child order among equal indices.
func (c *compiler) prevSequential() {
	c.prevSeq = make([]int32, len(c.phases))
	for i := range c.prevSeq {
		c.prevSeq[i] = -1
	}
	var seq []int32
	for par := range c.phases {
		seq = seq[:0]
		for ch := int32(par) + 1; ch < int32(par)+c.size[par]; ch += c.size[ch] {
			if c.index[ch] >= 0 {
				seq = append(seq, ch)
			}
		}
		for _, q := range seq {
			for _, s := range seq {
				if c.phases[s].Type == c.phases[q].Type && c.index[s] < c.index[q] &&
					(c.prevSeq[q] < 0 || c.index[s] > c.index[c.prevSeq[q]]) {
					c.prevSeq[q] = s
				}
			}
		}
	}
}

// end returns the node id of phase i's end before ordering.
func (c *compiler) end(i int32) int32 {
	if g := c.group[i]; g >= 0 {
		return 2*int32(len(c.phases)) + g
	}
	return 2*i + 1
}

// eachDep calls fn with the dependencies of node v, numbered as in node.
func (c *compiler) eachDep(v int32, fn func(int32)) {
	n := int32(len(c.phases))
	i := v / 2
	switch {
	case v >= 2*n:
		g := v - 2*n
		for _, m := range c.members[c.groupOff[g]:c.groupOff[g+1]] {
			fn(2*m + 1)
		}
	case v%2 == 0:
		par := c.parent[i]
		if par < 0 {
			return
		}
		fn(2 * par)
		if after := c.phases[i].Type.After; len(after) > 0 {
			for s := par + 1; s < par+c.size[par]; s += c.size[s] {
				if t := c.phases[s].Type; s != i && t != nil && slices.Contains(after, t.Name) {
					fn(c.end(s))
				}
			}
		}
		if q := c.prevSeq[i]; q >= 0 {
			fn(c.end(q))
		}
	default:
		fn(2 * i)
		for ch := i + 1; ch < i+c.size[i]; ch += c.size[ch] {
			fn(c.end(ch))
		}
	}
}

// order sorts the nodes topologically by an iterative depth-first search
// and lays out their dependencies in that order.
func (c *compiler) order() {
	nodes := int32(2*len(c.phases) + len(c.groupOff) - 1)
	const unvisited, active = -1, -2
	pos := make([]int32, nodes)
	for i := range pos {
		pos[i] = unvisited
	}
	order := make([]int32, 0, nodes)
	var stack []int32
	edges := 0
	push := func(d int32) {
		edges++
		switch pos[d] {
		case active:
			panic(fmt.Sprintf("issues: replay dependencies of %s form a cycle", c.describe(d)))
		case unvisited:
			stack = append(stack, d)
		}
	}
	for root := int32(0); root < nodes; root++ {
		if pos[root] != unvisited {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 { // every dependency of ^v is placed
				pos[^v] = int32(len(order))
				order = append(order, ^v)
				continue
			}
			if pos[v] != unvisited {
				continue
			}
			pos[v] = active
			stack = append(stack, ^v)
			c.eachDep(v, push)
		}
	}
	c.node = pos
	c.depOff = make([]int32, nodes+1)
	c.deps = make([]int32, 0, edges)
	for k, v := range order {
		c.eachDep(v, func(d int32) { c.deps = append(c.deps, pos[d]) })
		c.depOff[k+1] = int32(len(c.deps))
	}
}

// describe names node v for the cycle panic.
func (c *compiler) describe(v int32) string {
	if n := int32(len(c.phases)); v >= 2*n {
		return "sync group of " + c.phases[c.members[c.groupOff[v-2*n]]].Path
	}
	return c.phases[v/2].Path
}

// leafSlots numbers the leaves in Walk order and attaches each leaf's slot
// to its raw-end node.
func (c *compiler) leafSlots() {
	c.slot = make([]int32, len(c.depOff)-1)
	for n := range c.slot {
		c.slot[n] = -1
	}
	for i := int32(1); i < int32(len(c.phases)); i++ {
		if c.size[i] == 1 {
			c.slot[c.node[2*i+1]] = int32(len(c.leaves))
			c.leaves = append(c.leaves, c.phases[i])
			c.intrinsic = append(c.intrinsic, Intrinsic(c.phases[i]))
		}
	}
}

// run replays the plan with the leaf durations durs, indexed by slot and
// none negative, writing every node's value into val (one per node). It
// returns the makespan.
func (pl *plan) run(val []vtime.Time, durs []vtime.Duration) vtime.Duration {
	lo := int32(0)
	for n, hi := range pl.depOff[1:] {
		var t vtime.Time
		for _, d := range pl.deps[lo:hi] {
			if val[d] > t {
				t = val[d]
			}
		}
		lo = hi
		if s := pl.slot[n]; s >= 0 {
			t = t.Add(durs[s])
		}
		val[n] = t
	}
	return vtime.Duration(val[pl.node[1]])
}

// replayBuf is one replay's scratch: node values, leaf durations by slot,
// and the slots whose durations a what-if changed.
type replayBuf struct {
	val     []vtime.Time
	durs    []vtime.Duration
	changed []int32
}

// bufPool recycles replay buffers. A buffer belongs to one goroutine from
// buffer to Put, so candidate replays running on par workers each hold
// their own while sharing the plan.
var bufPool = sync.Pool{New: func() any { return new(replayBuf) }}

// buffer returns a pooled buffer for pl holding the intrinsic durations.
func (pl *plan) buffer() *replayBuf {
	b := bufPool.Get().(*replayBuf)
	if cap(b.val) < len(pl.slot) {
		b.val = make([]vtime.Time, len(pl.slot))
	}
	b.val = b.val[:len(pl.slot)]
	b.durs = append(b.durs[:0], pl.intrinsic...)
	b.changed = b.changed[:0]
	return b
}

// set records a what-if duration for slot s; each slot is set at most
// once per buffer.
func (b *replayBuf) set(s int, d vtime.Duration) {
	b.durs[s] = d
	b.changed = append(b.changed, int32(s))
}
