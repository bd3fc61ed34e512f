package profstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// ErrCorruptIndex matches (via errors.Is) every CorruptIndexError, so callers
// can branch on "the archive metadata is damaged" without caring which file.
var ErrCorruptIndex = errors.New("profstore: corrupt index")

// ErrCorruptRecord matches (via errors.Is) every CorruptRecordError.
var ErrCorruptRecord = errors.New("profstore: corrupt record")

// CorruptIndexError reports an index file that exists but does not parse.
// Path is the offending file (shards.json, a shard's index, or the legacy
// root index.json being migrated).
type CorruptIndexError struct {
	Path string
	Err  error
}

func (e *CorruptIndexError) Error() string {
	return fmt.Sprintf("profstore: corrupt index %s: %v", e.Path, e.Err)
}

func (e *CorruptIndexError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorruptIndex) true for every CorruptIndexError.
func (e *CorruptIndexError) Is(target error) bool { return target == ErrCorruptIndex }

// CorruptRecordError reports an archived record file that does not parse.
type CorruptRecordError struct {
	Path string
	Err  error
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("profstore: corrupt record %s: %v", e.Path, e.Err)
}

func (e *CorruptRecordError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorruptRecord) true for every CorruptRecordError.
func (e *CorruptRecordError) Is(target error) bool { return target == ErrCorruptRecord }

// Archive is the run-archive surface every consumer (CLI, serve, fleet,
// alert) works against, so a caller can wrap the Store it is handed.
type Archive interface {
	// Len returns the number of retained runs.
	Len() int
	// EvictedTotal returns the runs evicted over the archive's lifetime.
	EvictedTotal() int64
	// List returns the retained runs in append order (ascending Seq).
	List() []Meta
	// Put archives a record (see Store.Put).
	Put(rec *Record) (Meta, []string, error)
	// Get loads one record by ID or unique ID prefix.
	Get(id string) (*Record, error)
	// Resolve maps an ID or unique ID prefix to its index entry.
	Resolve(id string) (Meta, error)
}

var _ Archive = (*Store)(nil)

// Meta is the index entry of one archived run.
type Meta struct {
	ID         string `json:"id"`
	Seq        int64  `json:"seq"`
	Label      string `json:"label,omitempty"`
	Engine     string `json:"engine"`
	Job        string `json:"job"`
	Workers    int    `json:"workers"`
	MakespanNS int64  `json:"makespan_ns"`
}

func metaOf(rec *Record) Meta {
	return Meta{ID: rec.ID, Seq: rec.Seq, Label: rec.Label, Engine: rec.Engine,
		Job: rec.Job, Workers: rec.Workers, MakespanNS: rec.MakespanNS}
}

// index is the persisted state of one shard; the legacy single-index layout
// used the same encoding at the archive root.
type index struct {
	Version      int    `json:"version"`
	NextSeq      int64  `json:"next_seq"`
	EvictedTotal int64  `json:"evicted_total"`
	Runs         []Meta `json:"runs"`
}

// layout is the persisted top-level state of an archive (shards.json).
type layout struct {
	Version int   `json:"version"`
	Shards  int   `json:"shards"`
	NextSeq int64 `json:"next_seq"`
	// EvictedBase carries evictions inherited from a migrated single-index
	// archive, so EvictedTotal survives the layout change.
	EvictedBase int64 `json:"evicted_base,omitempty"`
}

// Options tunes an archive.
type Options struct {
	// Shards is the shard count of a newly created archive; 0 means 1. An
	// existing archive keeps the count recorded in its shards.json, and this
	// field is then ignored.
	Shards int
	// MaxRunsPerShard bounds retention per shard; 0 means unlimited. Shard
	// assignment is uniform over content-hash IDs, so the archive retains
	// about Shards×MaxRunsPerShard runs.
	MaxRunsPerShard int
}

// ShardedOptions is Options under its former name. It exists only so the
// benchmark harness builds unchanged; everything else uses Options.
type ShardedOptions = Options

// OpenSharded is Open under its former name. It exists only so the
// benchmark harness builds unchanged; everything else uses Open.
func OpenSharded(dir string, opts ShardedOptions) (*Store, error) { return Open(dir, opts) }

const (
	layoutFile = "shards.json"
	indexFile  = "index.json"
	runsDir    = "runs"
)

// shard is one index file and its record directory.
type shard struct {
	dir string
	idx index
}

// Store is an on-disk run archive split into shards by run-ID prefix (see
// the package doc for the layout). Sequence numbers are allocated globally,
// so List — the merge of every shard in Seq order — is one append order.
// All methods are safe for concurrent use; the store guards its own state.
type Store struct {
	mu      sync.Mutex
	dir     string
	maxRuns int
	meta    layout
	shards  []*shard

	corruptRecords int64
	shardErrs      []error // one per shard index rebuilt at open
}

// shardOf deterministically assigns a run ID to a shard by its hex prefix
// (content IDs are hex); non-hex IDs fall back to a byte sum. Both paths
// depend only on the ID, so the same run lands in the same shard forever.
func shardOf(id string, n int) int {
	if len(id) >= 2 {
		if v, err := strconv.ParseUint(id[:2], 16, 8); err == nil {
			return int(v) % n
		}
	}
	sum := 0
	for i := 0; i < len(id); i++ {
		sum += int(id[i])
	}
	return sum % n
}

func shardDir(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d", k))
}

// Open opens (or creates) the archive at dir. An existing archive's shard
// count comes from its shards.json; opts.Shards only sizes a new one.
//
// A legacy single-index archive (a root index.json with runs/) is migrated
// in place: every record is re-filed into its shard with its ID, label and
// sequence number preserved, shards.json is written, and only then are the
// legacy files removed, so a crash at any step leaves an archive that the
// next Open finishes migrating. A root index.json found beside shards.json
// (records appended by an older build that ignored the sharded layout) is
// merged the same way, its records appended at fresh sequence numbers.
//
// A shard index that does not parse is quarantined as index.json.corrupt and
// rebuilt from the shard's record files (CorruptShards, ShardErrors). Record
// files that do not parse are skipped and counted (CorruptRecords), never
// fatal, so one damaged file cannot take down the whole archive.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, maxRuns: opts.MaxRunsPerShard,
		meta: layout{Version: Version, Shards: opts.Shards}}

	metaPath := filepath.Join(dir, layoutFile)
	err := load(metaPath, &s.meta, &s.meta.Version, corruptIndex)
	exists := err == nil
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if exists && s.meta.Shards <= 0 {
		return nil, corruptIndex(metaPath, fmt.Errorf("shard count %d", s.meta.Shards))
	}

	legacy, err := readIndex(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	if legacy != nil && !exists {
		// Shard directories without shards.json are a migration that
		// stopped part way, perhaps at another shard count. The legacy
		// index is still authoritative: start the migration over.
		stale, err := filepath.Glob(filepath.Join(dir, "shard-*"))
		if err != nil {
			return nil, err
		}
		for _, d := range stale {
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}

	s.shards = make([]*shard, s.meta.Shards)
	for k := range s.shards {
		sh, err := s.openShard(k)
		if err != nil {
			return nil, err
		}
		// A shard index may have been persisted ahead of shards.json.
		s.meta.NextSeq = max(s.meta.NextSeq, sh.idx.NextSeq)
		s.shards[k] = sh
	}

	switch {
	case legacy != nil:
		err = s.migrate(legacy, exists)
	case !exists:
		err = s.writeLayout()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// openShard loads shard k, rebuilding its index from the record files when
// the index does not parse.
func (s *Store) openShard(k int) (*shard, error) {
	sh := &shard{dir: shardDir(s.dir, k), idx: index{Version: Version}}
	if err := os.MkdirAll(filepath.Join(sh.dir, runsDir), 0o755); err != nil {
		return nil, err
	}
	idx, err := readIndex(filepath.Join(sh.dir, indexFile))
	var ce *CorruptIndexError
	switch {
	case errors.As(err, &ce):
		s.shardErrs = append(s.shardErrs, ce)
		if err := os.Rename(ce.Path, ce.Path+".corrupt"); err != nil {
			return nil, err
		}
		if err := s.rebuild(sh); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	case idx != nil:
		sh.idx = *idx
	}
	return sh, nil
}

// rebuild reconstructs a shard's index from its record files, each of which
// carries its ID, Seq, Label and meta fields. Unparseable records are
// skipped and counted. The shard's eviction count is not recoverable and
// restarts at zero.
func (s *Store) rebuild(sh *shard) error {
	paths, err := filepath.Glob(filepath.Join(sh.dir, runsDir, "*.json"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		rec, err := readRecord(p)
		if errors.Is(err, ErrCorruptRecord) {
			s.corruptRecords++
			continue
		}
		if err != nil {
			return err
		}
		sh.idx.Runs = append(sh.idx.Runs, metaOf(rec))
		sh.idx.NextSeq = max(sh.idx.NextSeq, rec.Seq+1)
	}
	sort.Slice(sh.idx.Runs, func(i, j int) bool { return sh.idx.Runs[i].Seq < sh.idx.Runs[j].Seq })
	return sh.writeIndex()
}

// migrate re-files the records of a legacy root index into the shards, then
// persists shards.json, then removes the legacy runs/ and finally the legacy
// index.json, which therefore marks an unfinished migration until the end.
// Into a fresh layout every record keeps its Seq and the legacy counters
// carry over. Into an existing layout (committed) records already present
// are skipped — a resumed migration finds them all — and the rest are
// appended at fresh sequence numbers; legacy eviction counts are not merged.
func (s *Store) migrate(legacy *index, committed bool) error {
	if !committed {
		s.meta.NextSeq = legacy.NextSeq
		s.meta.EvictedBase = legacy.EvictedTotal
	}
	for _, m := range legacy.Runs {
		if _, ok := s.lookup(m.ID); ok {
			continue
		}
		rec, err := readRecord(filepath.Join(s.dir, runsDir, m.ID+".json"))
		switch {
		case errors.Is(err, ErrCorruptRecord):
			s.corruptRecords++
			continue
		case os.IsNotExist(err):
			continue // removed by an eviction the legacy index never recorded
		case err != nil:
			return err
		}
		seq := m.Seq
		if committed {
			seq = s.meta.NextSeq
			s.meta.NextSeq++
		}
		if _, _, err := s.shardFor(m.ID).put(rec, seq, s.maxRuns); err != nil {
			return err
		}
	}
	if err := s.writeLayout(); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(s.dir, runsDir)); err != nil {
		return err
	}
	return os.Remove(filepath.Join(s.dir, indexFile))
}

// load decodes the JSON file at path into v, whose schema version is
// *version: a missing version loads as 1, a newer one than this build reads
// is an error, and a file that does not parse is reported by corrupt.
func load(path string, v any, version *int, corrupt func(string, error) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return corrupt(path, err)
	}
	if *version == 0 {
		*version = 1
	}
	if *version > Version {
		return fmt.Errorf("profstore: %s is version %d, this build reads up to %d", path, *version, Version)
	}
	return nil
}

func corruptIndex(path string, err error) error  { return &CorruptIndexError{Path: path, Err: err} }
func corruptRecord(path string, err error) error { return &CorruptRecordError{Path: path, Err: err} }

// readIndex loads an index file; a missing file is (nil, nil).
func readIndex(path string) (*index, error) {
	idx := &index{}
	err := load(path, idx, &idx.Version, corruptIndex)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return idx, nil
}

func readRecord(path string) (*Record, error) {
	rec := &Record{}
	if err := load(path, rec, &rec.Version, corruptRecord); err != nil {
		return nil, err
	}
	return rec, nil
}

// writeFileAtomic writes v as indented JSON plus a newline, via
// write-then-rename.
func writeFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (s *Store) writeLayout() error {
	return writeFileAtomic(filepath.Join(s.dir, layoutFile), &s.meta)
}

func (sh *shard) writeIndex() error {
	return writeFileAtomic(filepath.Join(sh.dir, indexFile), &sh.idx)
}

func (sh *shard) runPath(id string) string {
	return filepath.Join(sh.dir, runsDir, id+".json")
}

func (s *Store) shardFor(id string) *shard { return s.shards[shardOf(id, len(s.shards))] }

// put files the record at sequence number seq: the record file first, then
// the index, then the removal of runs evicted past maxRuns (0 = unlimited).
// An ID already present is replaced in place.
func (sh *shard) put(rec *Record, seq int64, maxRuns int) (Meta, []string, error) {
	rec.Seq = seq
	sh.idx.NextSeq = max(sh.idx.NextSeq, seq+1)
	meta := metaOf(rec)

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return Meta{}, nil, err
	}
	if err := os.WriteFile(sh.runPath(rec.ID), append(data, '\n'), 0o644); err != nil {
		return Meta{}, nil, err
	}
	// Drop a replaced entry, append the new one, then evict oldest-first.
	runs := sh.idx.Runs[:0]
	for _, m := range sh.idx.Runs {
		if m.ID != rec.ID {
			runs = append(runs, m)
		}
	}
	runs = append(runs, meta)
	var evicted []string
	for maxRuns > 0 && len(runs) > maxRuns {
		evicted = append(evicted, runs[0].ID)
		runs = runs[1:]
		sh.idx.EvictedTotal++
	}
	sh.idx.Runs = runs
	if err := sh.writeIndex(); err != nil {
		return Meta{}, nil, err
	}
	for _, id := range evicted {
		if err := os.Remove(sh.runPath(id)); err != nil && !os.IsNotExist(err) {
			return Meta{}, nil, err
		}
	}
	return meta, evicted, nil
}

// CorruptShards returns how many shard indexes were rebuilt as corrupt when
// the archive was opened.
func (s *Store) CorruptShards() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.shardErrs))
}

// CorruptRecords returns how many record files were skipped as corrupt
// (during open or Get) over the store's lifetime.
func (s *Store) CorruptRecords() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corruptRecords
}

// ShardErrors returns the typed errors of shard indexes rebuilt at open.
func (s *Store) ShardErrors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.shardErrs...)
}

// Len returns the number of retained runs across all shards.
func (s *Store) Len() int { return len(s.List()) }

// EvictedTotal returns lifetime evictions across all shards, including those
// inherited from a migrated single-index archive.
func (s *Store) EvictedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.meta.EvictedBase
	for _, sh := range s.shards {
		n += sh.idx.EvictedTotal
	}
	return n
}

// List merges every shard's runs in ascending Seq order (oldest first).
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Meta
	for _, sh := range s.shards {
		out = append(out, sh.idx.Runs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Put archives the record into its ID's shard at the next global sequence
// number, assigning its Seq and (if empty) its content ID, then applies that
// shard's retention. Re-archiving an ID already present replaces the record
// in place at a fresh sequence number. It returns the stored meta and the
// IDs evicted by this append.
func (s *Store) Put(rec *Record) (Meta, []string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Version == 0 {
		rec.Version = Version
	}
	if rec.ID == "" {
		rec.ID = ContentID(rec)
	}
	seq := s.meta.NextSeq
	s.meta.NextSeq++
	if err := s.writeLayout(); err != nil {
		return Meta{}, nil, err
	}
	return s.shardFor(rec.ID).put(rec, seq, s.maxRuns)
}

// Get loads one record by ID or unique ID prefix. Corrupt record files are
// counted before the typed error is returned, so callers that skip them
// (fleet regression scans) leave an audit trail.
func (s *Store) Get(id string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.resolve(id)
	if err != nil {
		return nil, err
	}
	rec, err := readRecord(s.shardFor(meta.ID).runPath(meta.ID))
	if errors.Is(err, ErrCorruptRecord) {
		s.corruptRecords++
	}
	return rec, err
}

// Resolve maps an ID or unique ID prefix (at least four characters) to its
// index entry.
func (s *Store) Resolve(id string) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolve(id)
}

// lookup finds an exact ID.
func (s *Store) lookup(id string) (Meta, bool) {
	for _, m := range s.shardFor(id).idx.Runs {
		if m.ID == id {
			return m, true
		}
	}
	return Meta{}, false
}

func (s *Store) resolve(id string) (Meta, error) {
	if id == "" {
		return Meta{}, fmt.Errorf("profstore: empty run id")
	}
	if m, ok := s.lookup(id); ok {
		return m, nil
	}
	var match *Meta
	for _, sh := range s.shards {
		for i := range sh.idx.Runs {
			m := &sh.idx.Runs[i]
			if len(id) >= 4 && len(id) < len(m.ID) && m.ID[:len(id)] == id {
				if match != nil {
					return Meta{}, fmt.Errorf("profstore: run id prefix %q is ambiguous", id)
				}
				match = m
			}
		}
	}
	if match == nil {
		return Meta{}, fmt.Errorf("profstore: no run %q in %s", id, s.dir)
	}
	return *match, nil
}
