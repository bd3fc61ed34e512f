package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"grade10/internal/enginelog"
	"grade10/internal/vtime"
)

// BlockInterval is one blocking event: the phase was stalled on Resource
// during [Start, End).
type BlockInterval struct {
	Resource string
	Start    vtime.Time
	End      vtime.Time
}

// Duration returns the interval length.
func (b BlockInterval) Duration() vtime.Duration { return b.End.Sub(b.Start) }

// Phase is one phase instance extracted from an execution log.
type Phase struct {
	// Path is the instance path, e.g. "/pr/execute/superstep.2/worker.0".
	Path string
	// Type is the phase type from the execution model; nil only for the
	// synthetic trace root.
	Type *PhaseType
	// Parent and Children form the instance tree.
	Parent   *Phase
	Children []*Phase
	// Start and End bound the execution.
	Start vtime.Time
	End   vtime.Time
	// Machine hosting the phase, inherited from the parent when the log did
	// not bind one; -1 when unbound anywhere in the ancestry.
	Machine int
	// Blocked lists the blocking events logged against this phase, sorted by
	// start time.
	Blocked []BlockInterval

	// index caches the effective blocking behind BlockedWithin and
	// ActiveTime; see InvalidateBlockIndex.
	index atomic.Pointer[blockIndex]
}

// Duration returns End-Start.
func (p *Phase) Duration() vtime.Duration { return p.End.Sub(p.Start) }

// IsLeaf reports whether the phase has no children. Attribution operates on
// leaves; parents aggregate.
func (p *Phase) IsLeaf() bool { return len(p.Children) == 0 }

// Index returns the instance index of the final path segment, or -1.
func (p *Phase) Index() int {
	segs := enginelog.Split(p.Path)
	if len(segs) == 0 {
		return -1
	}
	return enginelog.SegmentIndex(segs[len(segs)-1])
}

// BlockedTime returns the total time blocked on the named resource, or on
// any resource when name is empty. Overlapping intervals are unioned.
func (p *Phase) BlockedTime(resource string) vtime.Duration {
	var total vtime.Duration
	var lastEnd vtime.Time
	for _, b := range p.Blocked {
		if resource != "" && b.Resource != resource {
			continue
		}
		s, e := b.Start, b.End
		if s < lastEnd {
			s = lastEnd
		}
		if e > s {
			total += e.Sub(s)
			lastEnd = e
		}
	}
	return total
}

// BlockedWithin returns the unioned blocking time of this phase and its
// ancestors inside the window [t0, t1), restricted to the named resource
// (empty = any): if a parent is stalled, its running children are stalled
// too. Ancestor blocking counts only within the phase's own [Start, End).
func (p *Phase) BlockedWithin(resource string, t0, t1 vtime.Time) vtime.Duration {
	return p.blocking().list(resource).within(t0, t1)
}

// ActiveTime returns the time within [t0, t1) during which the phase was
// running and not blocked (own or ancestor blocking events): the paper's
// notion of a phase being "active" in a timeslice.
func (p *Phase) ActiveTime(t0, t1 vtime.Time) vtime.Duration {
	lo := vtime.Max(p.Start, t0)
	hi := vtime.Min(p.End, t1)
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo) - p.blocking().any.within(lo, hi)
}

// ActiveFraction returns ActiveTime normalized by the window length.
func (p *Phase) ActiveFraction(t0, t1 vtime.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	return p.ActiveTime(t0, t1).Seconds() / t1.Sub(t0).Seconds()
}

// Walk visits the phase and all descendants depth-first in child order.
func (p *Phase) Walk(fn func(*Phase)) {
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// ExecutionTrace is the parsed, validated phase-instance tree of one workload
// execution.
type ExecutionTrace struct {
	// Root is a synthetic node whose children are the logged top-level
	// phases (normally exactly one: the application).
	Root *Phase
	// ByPath indexes every real phase instance.
	ByPath map[string]*Phase
	// Start and End bound the whole execution.
	Start vtime.Time
	End   vtime.Time
}

// BuildExecutionTrace parses an engine log against an execution model. Every
// start must have a matching end, instance paths must map to model types,
// parents must be logged before children start, and blocking events must
// reference logged phases.
func BuildExecutionTrace(log *enginelog.Log, model *ExecutionModel) (*ExecutionTrace, error) {
	root := &Phase{Path: "/", Machine: -1, Start: vtime.Infinity}
	tr := &ExecutionTrace{Root: root, ByPath: map[string]*Phase{}}
	open := map[string]bool{}

	for i, e := range log.Events {
		switch e.Kind {
		case enginelog.PhaseStart:
			if _, dup := tr.ByPath[e.Path]; dup {
				return nil, fmt.Errorf("core: event %d: duplicate phase %q", i, e.Path)
			}
			pt := model.LookupInstance(e.Path)
			if pt == nil {
				return nil, fmt.Errorf("core: event %d: phase %q has no type %q in the execution model",
					i, e.Path, enginelog.TypePath(e.Path))
			}
			parent := root
			if pp := enginelog.Parent(e.Path); pp != "/" {
				var ok bool
				parent, ok = tr.ByPath[pp]
				if !ok {
					return nil, fmt.Errorf("core: event %d: phase %q starts before its parent %q", i, e.Path, pp)
				}
			}
			machine := e.Machine
			if machine < 0 {
				machine = parent.Machine
			}
			ph := &Phase{Path: e.Path, Type: pt, Parent: parent, Start: e.Time, End: -1, Machine: machine}
			parent.Children = append(parent.Children, ph)
			tr.ByPath[e.Path] = ph
			open[e.Path] = true

		case enginelog.PhaseEnd:
			ph, ok := tr.ByPath[e.Path]
			if !ok || !open[e.Path] {
				return nil, fmt.Errorf("core: event %d: end of unknown or closed phase %q", i, e.Path)
			}
			if e.Time < ph.Start {
				return nil, fmt.Errorf("core: event %d: phase %q ends before it starts", i, e.Path)
			}
			ph.End = e.Time
			delete(open, e.Path)

		case enginelog.Blocked:
			ph, ok := tr.ByPath[e.Path]
			if !ok {
				return nil, fmt.Errorf("core: event %d: blocking event for unknown phase %q", i, e.Path)
			}
			ph.Blocked = append(ph.Blocked, BlockInterval{Resource: e.Resource, Start: e.Time, End: e.End})

		case enginelog.Counter:
			// Counters are informational; the trace ignores them.
		}
	}
	if len(open) > 0 {
		// Name the smallest open path so the error is the same every run.
		first := ""
		for path := range open {
			if first == "" || path < first {
				first = path
			}
		}
		return nil, fmt.Errorf("core: phase %q never ended", first)
	}
	if len(tr.ByPath) == 0 {
		return nil, fmt.Errorf("core: log contains no phases")
	}

	for _, ph := range tr.ByPath {
		sort.Slice(ph.Blocked, func(i, j int) bool { return ph.Blocked[i].Start < ph.Blocked[j].Start })
		for _, b := range ph.Blocked {
			if b.Start < ph.Start || b.End > ph.End {
				return nil, fmt.Errorf("core: phase %q: blocking interval [%v,%v) outside phase [%v,%v)",
					ph.Path, b.Start, b.End, ph.Start, ph.End)
			}
		}
		// Children must be contained in their parents.
		if ph.Parent != root {
			if ph.Start < ph.Parent.Start || ph.End > ph.Parent.End {
				return nil, fmt.Errorf("core: phase %q [%v,%v) escapes parent %q [%v,%v)",
					ph.Path, ph.Start, ph.End, ph.Parent.Path, ph.Parent.Start, ph.Parent.End)
			}
		}
		if ph.Start < tr.Start {
			tr.Start = ph.Start
		}
		if ph.End > tr.End {
			tr.End = ph.End
		}
	}
	root.Start, root.End = tr.Start, tr.End
	sortChildren(root)
	return tr, nil
}

func sortChildren(p *Phase) {
	sort.Slice(p.Children, func(i, j int) bool {
		if p.Children[i].Start != p.Children[j].Start {
			return p.Children[i].Start < p.Children[j].Start
		}
		return p.Children[i].Path < p.Children[j].Path
	})
	for _, c := range p.Children {
		sortChildren(c)
	}
}

// Leaves returns all leaf phases, sorted by start time then path.
func (tr *ExecutionTrace) Leaves() []*Phase {
	var out []*Phase
	tr.Root.Walk(func(p *Phase) {
		if p != tr.Root && p.IsLeaf() {
			out = append(out, p)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// PhasesOfType returns all instances of the given type path, sorted by start
// time then path.
func (tr *ExecutionTrace) PhasesOfType(typePath string) []*Phase {
	var out []*Phase
	for _, p := range tr.ByPath {
		if p.Type != nil && p.Type.Path() == typePath {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Path < out[j].Path
	})
	return out
}
