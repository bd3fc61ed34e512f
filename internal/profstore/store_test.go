package profstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestShardedPutGetResolve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 20; i++ {
		meta, _, err := s.Put(testRecord(fmt.Sprintf("job%02d", i), int64(1e9+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, meta.ID)
	}
	if s.Len() != 20 {
		t.Fatalf("len = %d, want 20", s.Len())
	}

	// Listing is global Seq order regardless of which shard holds what.
	list := s.List()
	for i, m := range list {
		if m.Seq != int64(i) {
			t.Fatalf("list[%d].Seq = %d, want %d", i, m.Seq, i)
		}
		if m.ID != ids[i] {
			t.Fatalf("list[%d].ID = %s, want %s", i, m.ID, ids[i])
		}
	}

	// Records spread across more than one shard index.
	used := 0
	for k := 0; k < 4; k++ {
		if _, err := os.Stat(filepath.Join(shardDir(dir, k), indexFile)); err == nil {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d shard indexes in use for 20 records", used)
	}

	// Get and Resolve work across shards, including unique prefixes.
	for i, id := range ids {
		rec, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if rec.Job != fmt.Sprintf("job%02d", i) {
			t.Fatalf("get %s returned job %s", id, rec.Job)
		}
		m, err := s.Resolve(id[:6])
		if err != nil {
			t.Fatalf("resolve %s: %v", id[:6], err)
		}
		if m.ID != id {
			t.Fatalf("resolve %s = %s", id[:6], m.ID)
		}
	}

	// Reopening preserves everything, and the shard count recorded at
	// creation wins over whatever the reopen asks for.
	for _, n := range []int{0, 1, 2, 4, 8} {
		s2, err := Open(dir, Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(s2.shards) != 4 {
			t.Fatalf("reopened with Shards %d: %d shards, want 4", n, len(s2.shards))
		}
		if !reflect.DeepEqual(s2.List(), list) {
			t.Fatalf("reopened with Shards %d: listing changed", n)
		}
	}
	for _, p := range []string{filepath.Join(dir, indexFile), shardDir(dir, 4)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("reopen wrote %s (err=%v)", p, err)
		}
	}
}

// TestShardMigrationRoundTrip: a legacy single-index archive yields the
// identical listing (IDs, Seqs, labels), and the legacy layout is gone.
func TestShardMigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var recs []*Record
	for i := 0; i < 9; i++ {
		rec := testRecord(fmt.Sprintf("legacy%d", i), int64(2e9+i))
		rec.Label = fmt.Sprintf("label-%d", i)
		recs = append(recs, rec)
	}
	before := writeLegacy(t, dir, 0, recs)

	s, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.List(), before) {
		t.Fatalf("migrated listing differs:\n%+v\nvs\n%+v", s.List(), before)
	}
	for _, m := range before {
		rec, err := s.Get(m.ID)
		if err != nil {
			t.Fatalf("get %s after migration: %v", m.ID, err)
		}
		if rec.Label != m.Label {
			t.Fatalf("label %q vs %q", rec.Label, m.Label)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("legacy index.json still present (err=%v)", err)
	}

	// New puts continue the migrated Seq sequence.
	meta, _, err := s.Put(testRecord("post-migration", 3e9))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != int64(len(before)) {
		t.Fatalf("post-migration Seq = %d, want %d", meta.Seq, len(before))
	}

	// And a reopen of the sharded layout is stable (no double migration).
	s2, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(before)+1 {
		t.Fatalf("reopened len = %d, want %d", s2.Len(), len(before)+1)
	}
}

func TestCorruptIndexTypedError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", err)
	}
	var ce *CorruptIndexError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not unwrap to *CorruptIndexError", err)
	}
	if ce.Path != filepath.Join(dir, indexFile) {
		t.Fatalf("corrupt index path = %q", ce.Path)
	}
}

// TestShardedQuarantinesCorruptShard: one garbled shard index does not take
// the archive down — the index is quarantined, counted, and rebuilt from the
// shard's records, so every record is still listed at its original Seq.
func TestShardedQuarantinesCorruptShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var perShard [2][]string
	for i := 0; i < 12; i++ {
		meta, _, err := s.Put(testRecord(fmt.Sprintf("q%d", i), int64(4e9+i)))
		if err != nil {
			t.Fatal(err)
		}
		perShard[shardOf(meta.ID, 2)] = append(perShard[shardOf(meta.ID, 2)], meta.ID)
	}
	if len(perShard[0]) == 0 || len(perShard[1]) == 0 {
		t.Skip("hash landed every record in one shard; scenario needs both")
	}
	before := s.List()
	if err := os.WriteFile(filepath.Join(shardDir(dir, 0), indexFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatalf("one corrupt shard failed the whole archive: %v", err)
	}
	if s2.CorruptShards() != 1 {
		t.Fatalf("corrupt shards = %d, want 1", s2.CorruptShards())
	}
	if errs := s2.ShardErrors(); len(errs) != 1 || !errors.Is(errs[0], ErrCorruptIndex) {
		t.Fatalf("shard errors = %v", errs)
	}
	// Both shards serve every record, listed as before the damage.
	if s2.Len() != 12 {
		t.Fatalf("len = %d, want all 12 records", s2.Len())
	}
	if !reflect.DeepEqual(s2.List(), before) {
		t.Fatalf("rebuilt listing differs:\n%+v\nvs\n%+v", s2.List(), before)
	}
	for _, m := range before {
		if _, err := s2.Get(m.ID); err != nil {
			t.Fatalf("record %s: %v", m.ID, err)
		}
	}
	if _, err := os.Stat(filepath.Join(shardDir(dir, 0), indexFile+".corrupt")); err != nil {
		t.Fatalf("damaged index not quarantined: %v", err)
	}
	// The rebuilt index is persisted: a reopen sees no damage.
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.CorruptShards() != 0 || !reflect.DeepEqual(s3.List(), before) {
		t.Fatalf("reopen after rebuild: corrupt %d, listing %+v", s3.CorruptShards(), s3.List())
	}
}

// TestCorruptRecordSkippedInMigration: a garbled record file is skipped with
// a counter during migration instead of failing the archive.
func TestCorruptRecordSkippedInMigration(t *testing.T) {
	dir := t.TempDir()
	var recs []*Record
	for i := 0; i < 5; i++ {
		recs = append(recs, testRecord(fmt.Sprintf("m%d", i), int64(5e9+i)))
	}
	metas := writeLegacy(t, dir, 0, recs)
	// Garble one record body; the legacy index still references it.
	bad := metas[2]
	if err := os.WriteFile(filepath.Join(dir, runsDir, bad.ID+".json"), []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatalf("one corrupt record failed migration: %v", err)
	}
	if s.CorruptRecords() != 1 {
		t.Fatalf("corrupt records = %d, want 1", s.CorruptRecords())
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	for _, m := range metas {
		_, err := s.Get(m.ID)
		if m.ID == bad.ID {
			if err == nil {
				t.Fatal("corrupt record migrated anyway")
			}
		} else if err != nil {
			t.Fatalf("healthy record %s: %v", m.ID, err)
		}
	}
}

// TestCorruptRecordTypedError: Get on a garbled record surfaces the typed
// error with the offending path.
func TestCorruptRecordTypedError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Put(testRecord("x", 6e9))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shardDir(dir, 0), runsDir, m.ID+".json")
	if err := os.WriteFile(path, []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(m.ID)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
	var ce *CorruptRecordError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("err = %#v, want path %q", err, path)
	}
}

// TestShardedRetention: per-shard retention evicts oldest-first within each
// shard and feeds the global eviction counter.
func TestShardedRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2, MaxRunsPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	var evictedTotal int
	for i := 0; i < 10; i++ {
		_, evicted, err := s.Put(testRecord(fmt.Sprintf("r%d", i), int64(7e9+i)))
		if err != nil {
			t.Fatal(err)
		}
		evictedTotal += len(evicted)
	}
	if s.Len() > 4 {
		t.Fatalf("len = %d, want <= 2 per shard", s.Len())
	}
	if int(s.EvictedTotal()) != evictedTotal || evictedTotal != 10-s.Len() {
		t.Fatalf("evicted total = %d (returned %d), len %d", s.EvictedTotal(), evictedTotal, s.Len())
	}
}
