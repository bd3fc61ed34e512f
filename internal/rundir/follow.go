package rundir

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// FollowSink receives the contents of a run directory incrementally as the
// producer writes it. Callbacks run on the Follow goroutine; nil callbacks
// are skipped.
type FollowSink struct {
	// Info fires once, as soon as run.json appears and parses.
	Info func(Info)
	// LogChunk fires with every raw byte range appended to execution.log,
	// whatever its format — the consumer feeds a format-detecting parser
	// (e.g. stream.Engine.IngestChunk), which also counts malformed lines.
	// The slice is only valid during the callback.
	LogChunk func([]byte)
	// MonitoringRow fires for every parsed monitoring.csv record.
	MonitoringRow func(MonitoringRow)
	// MonitoringError fires for malformed monitoring lines; the follow
	// continues.
	MonitoringError func(error)
}

// FollowOptions tunes the tail-follow loop. Times are wall-clock.
type FollowOptions struct {
	// Poll is the file polling interval; default 100ms.
	Poll time.Duration
	// Idle declares the run complete once run.json exists and neither data
	// file has grown for this long; default 1s.
	Idle time.Duration
}

func (o *FollowOptions) fill() {
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	if o.Idle <= 0 {
		o.Idle = time.Second
	}
}

// Follow tails a run directory while cmd/runsim (or any producer) is still
// writing it, delivering log bytes and monitoring rows to the sink as they
// land on disk. It handles files that do not exist yet and partially
// written trailing lines. Follow returns when the run is complete (run.json
// present and the data files idle), or when stop is closed.
func Follow(dir string, opt FollowOptions, stop <-chan struct{}, sink FollowSink) error {
	opt.fill()
	logTail := &byteTail{path: filepath.Join(dir, logFile)}
	monTail := &lineTail{path: filepath.Join(dir, monitoringFile)}
	infoSeen := false
	lastGrowth := time.Now()

	for {
		grew := false
		n, err := logTail.drain(sink.LogChunk)
		if err != nil {
			return fmt.Errorf("rundir: following %s: %w", logFile, err)
		}
		grew = grew || n > 0
		n, err = monTail.drain(func(line string) {
			row, ok, perr := ParseMonitoringLine(line)
			switch {
			case perr != nil:
				if sink.MonitoringError != nil {
					sink.MonitoringError(perr)
				}
			case ok && sink.MonitoringRow != nil:
				sink.MonitoringRow(row)
			}
		})
		if err != nil {
			return fmt.Errorf("rundir: following %s: %w", monitoringFile, err)
		}
		grew = grew || n > 0

		if !infoSeen {
			meta, err := os.ReadFile(filepath.Join(dir, infoFile))
			if err == nil {
				var info Info
				if jerr := json.Unmarshal(meta, &info); jerr == nil {
					infoSeen = true
					grew = true
					if sink.Info != nil {
						sink.Info(info)
					}
				}
				// An unparsable run.json is mid-write; retry next poll.
			}
		}

		if grew {
			lastGrowth = time.Now()
		} else if infoSeen && time.Since(lastGrowth) >= opt.Idle {
			return nil
		}
		select {
		case <-stop:
			return nil
		case <-time.After(opt.Poll):
		}
	}
}

// byteTail incrementally reads raw bytes appended to a file, with no
// line-structure assumptions — the binary-capable counterpart of lineTail.
type byteTail struct {
	path   string
	offset int64
}

// drain reads everything appended since the last call and invokes fn with
// each chunk read. The chunk is only valid during the call. A missing file
// is not an error.
func (t *byteTail) drain(fn func([]byte)) (int64, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(t.offset, 0); err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	var consumed int64
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			consumed += int64(n)
			t.offset += int64(n)
			if fn != nil {
				fn(buf[:n])
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return consumed, nil
			}
			return consumed, rerr
		}
	}
}

// lineTail incrementally reads complete lines appended to a file, holding
// back a trailing partial line until its newline arrives.
type lineTail struct {
	path    string
	offset  int64
	partial strings.Builder
}

// drain reads everything appended since the last call and invokes fn for
// each complete line. It returns the number of bytes consumed. A missing
// file is not an error (the producer has not created it yet).
func (t *lineTail) drain(fn func(string)) (int64, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(t.offset, 0); err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	var consumed int64
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			consumed += int64(n)
			t.offset += int64(n)
			chunk := buf[:n]
			for {
				nl := -1
				for i, c := range chunk {
					if c == '\n' {
						nl = i
						break
					}
				}
				if nl < 0 {
					t.partial.Write(chunk)
					break
				}
				t.partial.Write(chunk[:nl])
				fn(t.partial.String())
				t.partial.Reset()
				chunk = chunk[nl+1:]
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return consumed, nil
			}
			return consumed, rerr
		}
	}
}
