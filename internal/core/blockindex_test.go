package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"grade10/internal/vtime"
)

// blockedWithinOracle is the gather-and-sort BlockedWithin that preceded the
// blocked-interval index, kept verbatim as the reference: it collects every
// overlapping interval of p and its ancestors, sorts, and unions.
func blockedWithinOracle(p *Phase, resource string, t0, t1 vtime.Time) vtime.Duration {
	var intervals []BlockInterval
	for q := p; q != nil; q = q.Parent {
		for _, b := range q.Blocked {
			if resource != "" && b.Resource != resource {
				continue
			}
			if b.End > t0 && b.Start < t1 {
				intervals = append(intervals, BlockInterval{
					Start: vtime.Max(b.Start, t0), End: vtime.Min(b.End, t1),
				})
			}
		}
	}
	if len(intervals) == 0 {
		return 0
	}
	sort.Slice(intervals, func(i, j int) bool { return intervals[i].Start < intervals[j].Start })
	var total vtime.Duration
	var lastEnd vtime.Time = t0
	for _, b := range intervals {
		s := b.Start
		if s < lastEnd {
			s = lastEnd
		}
		if b.End > s {
			total += b.End.Sub(s)
			lastEnd = b.End
		}
	}
	return total
}

// activeTimeOracle is ActiveTime computed through the oracle.
func activeTimeOracle(p *Phase, t0, t1 vtime.Time) vtime.Duration {
	lo := vtime.Max(p.Start, t0)
	hi := vtime.Min(p.End, t1)
	if hi <= lo {
		return 0
	}
	return hi.Sub(lo) - blockedWithinOracle(p, "", lo, hi)
}

// randomTree builds a phase tree of the given depth under a root spanning
// [0, 1000) whose blocking intervals overlap, nest, repeat and have zero
// length. Some phases keep Blocked unsorted, as the live engine does for
// open phases, and some internal phases are left open (End = -1).
func randomTree(rng *rand.Rand, depth int, resources []string) []*Phase {
	root := &Phase{Path: "/r", Start: 0, End: 1000}
	all := []*Phase{root}
	var grow func(p *Phase, level int)
	grow = func(p *Phase, level int) {
		randomBlocking(rng, p, resources)
		if level == depth {
			return
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			s := p.Start + vtime.Time(rng.Int63n(int64(p.End-p.Start)+1))
			e := s + vtime.Time(rng.Int63n(int64(p.End-s)+1))
			c := &Phase{Path: fmt.Sprintf("%s/%d", p.Path, i), Parent: p, Start: s, End: e}
			p.Children = append(p.Children, c)
			all = append(all, c)
			grow(c, level+1)
		}
	}
	grow(root, 1)
	for _, p := range all {
		if len(p.Children) > 0 && rng.Intn(6) == 0 {
			p.End = -1
		}
	}
	return all
}

func randomBlocking(rng *rand.Rand, p *Phase, resources []string) {
	span := int64(p.End-p.Start) + 1
	for i, n := 0, rng.Intn(6); i < n; i++ {
		var b BlockInterval
		if len(p.Blocked) > 0 && rng.Intn(4) == 0 {
			b = p.Blocked[rng.Intn(len(p.Blocked))] // duplicate
		} else {
			s := p.Start + vtime.Time(rng.Int63n(span))
			e := s
			if rng.Intn(5) > 0 { // else zero length
				e += vtime.Time(rng.Int63n(int64(p.End-s) + 1))
			}
			b = BlockInterval{Resource: resources[rng.Intn(len(resources))], Start: s, End: e}
		}
		p.Blocked = append(p.Blocked, b)
	}
	if rng.Intn(3) > 0 {
		sort.Slice(p.Blocked, func(i, j int) bool { return p.Blocked[i].Start < p.Blocked[j].Start })
	}
}

// TestBlockIndexMatchesOracle compares BlockedWithin, ActiveTime and
// ActiveFraction with the oracle on random trees, for windows that
// straddle, contain or miss each phase's span. The index counts blocking
// only within the phase's span, so BlockedWithin is compared with the
// oracle over the window clipped to that span.
func TestBlockIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		resources := []string{"gc", "queue", "lock"}[:1+rng.Intn(3)]
		phases := randomTree(rng, 1+rng.Intn(4), resources)
		for _, p := range phases {
			if p.End < 0 {
				continue // open: only its descendants are queried
			}
			windows := [][2]vtime.Time{
				{p.Start, p.End},           // exactly the span
				{p.Start - 50, p.End + 50}, // contains it
				{p.Start - 50, p.Start},    // misses it before
				{p.End, p.End + 50},        // misses it after
			}
			for i := 0; i < 6; i++ {
				a, b := vtime.Time(rng.Int63n(1100)-50), vtime.Time(rng.Int63n(1100)-50)
				windows = append(windows, [2]vtime.Time{vtime.Min(a, b), vtime.Max(a, b)})
			}
			for _, w := range windows {
				t0, t1 := w[0], w[1]
				lo, hi := vtime.Max(t0, p.Start), vtime.Min(t1, p.End)
				for _, res := range append([]string{"", "absent"}, resources...) {
					var want vtime.Duration
					if lo < hi {
						want = blockedWithinOracle(p, res, lo, hi)
					}
					if got := p.BlockedWithin(res, t0, t1); got != want {
						t.Fatalf("trial %d %s BlockedWithin(%q, %d, %d) = %d, oracle %d",
							trial, p.Path, res, t0, t1, got, want)
					}
				}
				if got, want := p.ActiveTime(t0, t1), activeTimeOracle(p, t0, t1); got != want {
					t.Fatalf("trial %d %s ActiveTime(%d, %d) = %d, oracle %d", trial, p.Path, t0, t1, got, want)
				}
				var want float64
				if t1 > t0 {
					want = activeTimeOracle(p, t0, t1).Seconds() / t1.Sub(t0).Seconds()
				}
				if got := p.ActiveFraction(t0, t1); got != want {
					t.Fatalf("trial %d %s ActiveFraction(%d, %d) = %v, oracle %v", trial, p.Path, t0, t1, got, want)
				}
			}
		}
	}
}

// TestInvalidateBlockIndex changes a queried ancestor's blocking and span:
// after InvalidateBlockIndex its descendants answer from the new state.
func TestInvalidateBlockIndex(t *testing.T) {
	parent := &Phase{Path: "/p", Start: 0, End: 100}
	child := &Phase{Path: "/p/c", Parent: parent, Start: 10, End: 90}
	parent.Children = []*Phase{child}
	if got := child.ActiveTime(0, 100); got != 80 {
		t.Fatalf("ActiveTime before = %d, want 80", got)
	}
	parent.Blocked = append(parent.Blocked, BlockInterval{Resource: "gc", Start: 20, End: 30})
	child.End = 95
	parent.InvalidateBlockIndex()
	if got := child.ActiveTime(0, 100); got != 75 {
		t.Fatalf("ActiveTime after = %d, want 75", got)
	}
	if got := child.BlockedWithin("gc", 0, 100); got != 10 {
		t.Fatalf("BlockedWithin after = %d, want 10", got)
	}
}

// TestActiveTimeZeroAlloc guards the query path: once built, the index
// answers ActiveTime and BlockedWithin without allocating, and phases with
// no blocking of their own and nothing new to clip allocate nothing even to
// build.
func TestActiveTimeZeroAlloc(t *testing.T) {
	parent := &Phase{Path: "/p", Start: 0, End: 100,
		Blocked: []BlockInterval{{Resource: "gc", Start: 20, End: 30}, {Resource: "queue", Start: 25, End: 40}}}
	child := &Phase{Path: "/p/c", Parent: parent, Start: 10, End: 90,
		Blocked: []BlockInterval{{Resource: "gc", Start: 50, End: 60}}}
	parent.Children = []*Phase{child}
	child.ActiveTime(0, 100)
	var sink vtime.Duration
	if n := testing.AllocsPerRun(100, func() {
		sink += child.ActiveTime(15, 55) + child.BlockedWithin("gc", 0, 100)
	}); n != 0 {
		t.Fatalf("query allocates %v times per run", n)
	}
	if sink == 0 {
		t.Fatal("queries returned nothing")
	}
	// Children without blocking of their own either share the parent's
	// index (its blocking lies inside their span) or inherit nothing.
	fresh := make([]Phase, 202)
	for i := range fresh {
		fresh[i].Parent = parent
		fresh[i].Start, fresh[i].End = 0, 100
		if i%2 == 1 {
			fresh[i].Start, fresh[i].End = 60, 80
		}
	}
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		sink += fresh[next].ActiveTime(0, 100) + fresh[next+1].ActiveTime(0, 100)
		next += 2
	}); n != 0 {
		t.Fatalf("building unblocked phases allocates %v times per run", n)
	}
}

// TestBlockIndexConcurrentQueries queries one phase from several goroutines
// while its index and its ancestors' are still unbuilt. Run under -race.
func TestBlockIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phases := randomTree(rng, 4, []string{"gc", "queue"})
	var leaf *Phase
	for _, p := range phases {
		if p.End >= 0 && len(p.Children) == 0 && p.Parent != nil && p.Parent.Parent != nil &&
			blockedWithinOracle(p, "", p.Start, p.End) > 0 {
			leaf = p
			break
		}
	}
	if leaf == nil {
		t.Fatal("tree has no deep blocked leaf")
	}
	want := activeTimeOracle(leaf, leaf.Start, leaf.End)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := leaf.ActiveTime(leaf.Start, leaf.End); got != want {
				t.Errorf("ActiveTime = %d, oracle %d", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestUnclosedPhaseErrorNamesSmallestPath pins the never-ended error to the
// lexicographically smallest open path, whatever the map order.
func TestUnclosedPhaseErrorNamesSmallestPath(t *testing.T) {
	m := buildBSPModel(t)
	b := newLogBuilder()
	b.start(at(0), "/app", -1).start(at(0), "/app/load", -1).start(at(0), "/app/execute", -1)
	for i := 0; i < 20; i++ {
		_, err := BuildExecutionTrace(b.l.Log(), m)
		if err == nil || !strings.Contains(err.Error(), `phase "/app" never ended`) {
			t.Fatalf("error = %v, want it to name /app", err)
		}
	}
}
