package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grade10/internal/fleet"
	"grade10/internal/profstore"
	"grade10/internal/stream"
)

// fleetLane numbers the trace lanes of fleet registrations: registration i
// of a round records on lane fleetLane+i.
const fleetLane = 100

const (
	fleetPoll = 10 * time.Millisecond
	fleetIdle = 50 * time.Millisecond
	// fleetShards is the sharded archive's shard count.
	fleetShards = 4
	// fleetWait bounds how long a round waits for its records.
	fleetWait = 30 * time.Second
)

// registration is one run dir handed to the fleet, a copy of one source.
type registration struct {
	dir string
	ref *reference
}

// makeRegistrations copies the sources, cycling, into n run dirs with
// distinct names under dir (the fleet names a run after its directory).
func makeRegistrations(dir, prefix string, refs []*reference, n int) ([]registration, error) {
	regs := make([]registration, n)
	for i := range regs {
		ref := refs[i%len(refs)]
		d := filepath.Join(dir, fmt.Sprintf("%s-%02d-%s", prefix, i, ref.src.name))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		for _, f := range []string{"run.json", "execution.log", "monitoring.csv"} {
			if err := copyFile(filepath.Join(ref.dir, f), filepath.Join(d, f)); err != nil {
				return nil, err
			}
		}
		regs[i] = registration{dir: d, ref: ref}
	}
	return regs, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// timedArchive wraps the archive handed to the fleet: it times each Put
// and notes when each run's record was archived. The fleet serializes Put.
type timedArchive struct {
	profstore.Archive
	t     *tracer
	index map[string]int // "fleet:" + run name → registration index

	mu       sync.Mutex
	archived []time.Time
	records  []*profstore.Record
	done     chan int
}

func (a *timedArchive) Put(rec *profstore.Record) (profstore.Meta, []string, error) {
	start := time.Now()
	meta, evicted, err := a.Archive.Put(rec)
	end := time.Now()
	i, ok := a.index[rec.Label]
	if err != nil || !ok {
		return meta, evicted, err
	}
	a.mu.Lock()
	a.archived[i], a.records[i] = end, rec
	a.mu.Unlock()
	if a.t != nil {
		lane := fleetLane + i
		a.t.add(span{name: "profstore.put", lane: lane, start: a.t.since(start), end: a.t.since(end), alloc: -1})
	}
	a.done <- i
	return meta, evicted, nil
}

// roundResult is what one fleet round measured.
type roundResult struct {
	start     time.Time // when every registration was due
	wall      time.Duration
	attempted int       // registrations made
	archived  int       // records archived
	failed    []string  // at most one per registration
	latencyMS []float64 // due → record archived, per registration
	lagMS     []float64 // due → window flushed, per window
	lateMS    []float64 // due → Register called, per registration
	queueMS   []float64 // for queued registrations, traced rounds only
	activeMax int
	shed      int64
	events    int64
}

// fleetRound registers every run dir at once (an open loop: all are due
// when the round starts) with a fleet of nproc active slots, archiving
// into a fresh sharded profstore, and waits until every record is
// archived. Each archived record's content ID must equal the ID of
// profstore.BuildRecord over the batch output for its source.
func fleetRound(regs []registration, archiveDir string, nproc int, t *tracer) (roundResult, error) {
	var res roundResult
	if err := os.RemoveAll(archiveDir); err != nil {
		return res, err
	}
	store, err := profstore.OpenSharded(archiveDir, profstore.ShardedOptions{Shards: fleetShards})
	if err != nil {
		return res, err
	}
	arch := &timedArchive{
		Archive: store, t: t, index: map[string]int{},
		archived: make([]time.Time, len(regs)), records: make([]*profstore.Record, len(regs)),
		done: make(chan int, len(regs)),
	}
	for i, r := range regs {
		arch.index["fleet:"+filepath.Base(r.dir)] = i
	}
	var lagMu sync.Mutex
	var due time.Time
	f := fleet.New(fleet.Config{
		MaxActive:  nproc,
		QueueDepth: len(regs),
		Poll:       fleetPoll,
		Idle:       fleetIdle,
		// One analysis goroutine per active run, so the fleet never runs
		// more analysis goroutines than there are CPUs.
		Parallelism: 1,
		Archive:     arch,
		OnWindowFlush: func(_ string, wr *stream.WindowResult) {
			if wr == nil {
				return
			}
			lag := ms(time.Since(due))
			lagMu.Lock()
			res.lagMS = append(res.lagMS, lag)
			lagMu.Unlock()
		},
	})

	due = time.Now()
	res.start = due
	res.attempted = len(regs)
	fails := make([]string, len(regs))
	var queued []int
	want := 0 // registrations admitted
	registered := make([]time.Time, len(regs))
	for i, r := range regs {
		res.lateMS = append(res.lateMS, ms(time.Since(due)))
		start := time.Now()
		_, d, err := f.Register(r.dir)
		registered[i] = time.Now()
		if t != nil {
			t.add(span{name: "fleet.register", lane: 0, start: t.since(start), end: t.since(registered[i]), alloc: -1})
		}
		switch {
		case err != nil:
			fails[i] = fmt.Sprintf("register %s: %v", r.dir, err)
		case d == fleet.DecisionShed:
			fails[i] = fmt.Sprintf("register %s: shed", r.dir)
		case d == fleet.DecisionActive:
			want++
		case d == fleet.DecisionQueued:
			want++
			queued = append(queued, i)
		}
	}

	// Traced rounds watch the admission counters: the queue is FIFO, so
	// the k-th dequeue seen promotes the k-th queued registration.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	activation := make([]time.Time, len(regs))
	if t != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			prev, next := len(queued), 0
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				active, q, _ := f.Counts()
				now := time.Now()
				res.activeMax = max(res.activeMax, active)
				for ; prev > q && next < len(queued); prev-- {
					activation[queued[next]] = now
					next++
				}
				select {
				case <-stopPoll:
					return
				case <-tick.C:
				}
			}
		}()
	}

	timeout := time.NewTimer(fleetWait)
	for got := 0; got < want; {
		select {
		case <-arch.done:
			got++
		case <-timeout.C:
			want = got // the records still missing fail below
		}
	}
	timeout.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), fleetWait)
	err = f.Shutdown(ctx)
	cancel()
	res.wall = time.Since(due)
	close(stopPoll)
	pollWG.Wait()
	if err != nil {
		return res, err
	}
	_, _, res.shed = f.Counts()

	arch.mu.Lock()
	defer arch.mu.Unlock()
	for i, r := range regs {
		rec := arch.records[i]
		switch {
		case fails[i] != "":
		case rec == nil:
			fails[i] = fmt.Sprintf("%s: no record archived", r.dir)
		default:
			res.archived++
			res.events += r.ref.fp.Events
			res.latencyMS = append(res.latencyMS, ms(arch.archived[i].Sub(due)))
			if t != nil {
				t.add(span{name: "fleet.run", lane: fleetLane + i, start: t.since(registered[i]), end: t.since(arch.archived[i]), alloc: -1})
			}
			if id := profstore.ContentID(rec); id != r.ref.recordID {
				fails[i] = fmt.Sprintf("%s: archived record %s, batch record %s", r.dir, id, r.ref.recordID)
			}
		}
		if fails[i] != "" {
			res.failed = append(res.failed, fails[i])
		}
	}
	for _, i := range queued {
		if !activation[i].IsZero() && t != nil {
			res.queueMS = append(res.queueMS, ms(activation[i].Sub(registered[i])))
		}
	}
	return res, nil
}
