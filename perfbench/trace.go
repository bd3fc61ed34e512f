package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"grade10/internal/obs"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans on one lane nest by time; a lane is one goroutine of the
// benchmark or one fleet registration.
type span struct {
	name       string
	lane       int
	start, end time.Duration // since the tracer's epoch
	alloc      int64         // heap bytes allocated during the call; -1 when not sampled
	counts     map[string]int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced iterations call the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// windows are the intervals of traced work that coverage is measured
	// over.
	windows []interval
}

type interval struct{ start, end time.Duration }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// open starts a span on the benchmark's own lane; the returned function
// ends it with optional counts. withAlloc samples the heap allocation
// counter around the call, which costs about a microsecond, so per-line
// ingest calls skip it.
func (t *tracer) open(name string, withAlloc bool) func(counts map[string]int64) {
	if t == nil {
		return func(map[string]int64) {}
	}
	var alloc0 uint64
	if withAlloc {
		alloc0 = obs.HeapAllocBytes()
	}
	start := time.Now()
	return func(counts map[string]int64) {
		end := time.Now()
		alloc := int64(-1)
		if withAlloc {
			alloc = int64(obs.HeapAllocBytes() - alloc0)
		}
		t.add(span{name: name, start: t.since(start), end: t.since(end), alloc: alloc, counts: counts})
	}
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// window marks [start, end) as traced work for the coverage ratio.
func (t *tracer) window(start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.windows = append(t.windows, interval{t.since(start), t.since(end)})
	t.mu.Unlock()
}

func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durMS returns the duration in ms of every span with the given name.
func (t *tracer) durMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// allocMB returns the sampled allocation in MB of every span with the name.
func (t *tracer) allocMB(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		if s.alloc >= 0 {
			out = append(out, float64(s.alloc)/1e6)
		}
	}
	return out
}

// count returns the named count of every span with the given name.
func (t *tracer) count(name, key string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		if v, ok := s.counts[key]; ok {
			out = append(out, float64(v))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it covered by
// its direct children on the same lane, keyed by span index.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	byLane := map[int][]int{}
	for i, s := range t.spans {
		self[i] = s.dur()
		byLane[s.lane] = append(byLane[s.lane], i)
	}
	for _, idx := range byLane {
		sortNested(t.spans, idx)
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end <= t.spans[i].start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= t.spans[i].dur()
			}
			stack = append(stack, i)
		}
	}
	return self
}

// sortNested orders span indices so that a parent precedes its children:
// by start, then longest first.
func sortNested(spans []span, idx []int) {
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
}

// coverage is the share of the traced windows that the union of all layer
// spans covers.
func (t *tracer) coverage() float64 {
	var wall time.Duration
	for _, w := range t.windows {
		wall += w.end - w.start
	}
	if wall <= 0 {
		return 0
	}
	ivs := make([]interval, 0, len(t.spans))
	for _, s := range t.spans {
		ivs = append(ivs, interval{s.start, s.end})
	}
	union := mergeIntervals(ivs)
	var covered time.Duration
	for _, w := range t.windows {
		for _, u := range union {
			lo, hi := max(w.start, u.start), min(w.end, u.end)
			if hi > lo {
				covered += hi - lo
			}
		}
	}
	return float64(covered) / float64(wall)
}

func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, iv.end)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// writeSelfTable prints, per layer span, the call count, total time and
// self time, largest self time first.
func (t *tracer) writeSelfTable(w io.Writer) {
	self := t.selfTimes()
	type row struct {
		name        string
		calls       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += self[i]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].self != list[j].self {
			return list[i].self > list[j].self
		}
		return list[i].name < list[j].name
	})
	fmt.Fprintf(w, "%-26s %8s %12s %12s\n", "layer span", "calls", "total_ms", "self_ms")
	for _, r := range list {
		fmt.Fprintf(w, "%-26s %8d %12.3f %12.3f\n", r.name, r.calls, ms(r.total), ms(r.self))
	}
}

// writeChromeTrace writes the spans as Chrome/Perfetto trace events, one
// track per lane, and validates the result. Per-line ingest calls that
// flushed no window are left out of the file (they are tens of thousands
// of sub-10µs slices); their statistics are still in the metrics.
func (t *tracer) writeChromeTrace(path, label string) error {
	b := obs.NewTraceBuilder()
	b.ProcessName(1, label)
	byLane := map[int][]int{}
	var lanes []int
	for i, s := range t.spans {
		if s.name == "stream.ingest" && s.counts["flush"] == 0 {
			continue
		}
		if _, ok := byLane[s.lane]; !ok {
			lanes = append(lanes, s.lane)
		}
		byLane[s.lane] = append(byLane[s.lane], i)
	}
	sort.Ints(lanes)
	for _, lane := range lanes {
		b.ThreadName(1, lane, laneName(lane))
		idx := byLane[lane]
		sortNested(t.spans, idx)
		var stack []int
		pop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b.End(1, lane, us(t.spans[top].end))
		}
		for _, i := range idx {
			s := t.spans[i]
			for len(stack) > 0 && t.spans[stack[len(stack)-1]].end <= s.start {
				pop()
			}
			var args map[string]any
			if len(s.counts) > 0 || s.alloc >= 0 {
				args = map[string]any{}
				for k, v := range s.counts {
					args[k] = v
				}
				if s.alloc >= 0 {
					args["alloc_bytes"] = s.alloc
				}
			}
			b.Begin(1, lane, s.name, us(s.start), args)
			stack = append(stack, i)
		}
		for len(stack) > 0 {
			pop()
		}
	}
	if err := b.ValidateTrace(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func laneName(lane int) string {
	if lane >= fleetLane {
		return fmt.Sprintf("fleet registration %d", lane-fleetLane)
	}
	return "benchmark"
}

func us(d time.Duration) int64 { return int64(d / time.Microsecond) }
