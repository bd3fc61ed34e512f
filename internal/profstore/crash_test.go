package profstore

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeLegacy writes the single-index layout older builds produced: a root
// index.json and runs/<id>.json. The records get Seqs firstSeq, firstSeq+1,
// ..., and the index counts firstSeq runs as evicted before them. It returns
// the index entries.
func writeLegacy(t *testing.T, dir string, firstSeq int64, recs []*Record) []Meta {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, runsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	idx := index{Version: Version, NextSeq: firstSeq + int64(len(recs)), EvictedTotal: firstSeq}
	for i, rec := range recs {
		rec.Version = Version
		rec.ID = ContentID(rec)
		rec.Seq = firstSeq + int64(i)
		writeJSON(t, filepath.Join(dir, runsDir, rec.ID+".json"), rec)
		idx.Runs = append(idx.Runs, metaOf(rec))
	}
	writeJSON(t, filepath.Join(dir, indexFile), &idx)
	return idx.Runs
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files under src (recursively) into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readOrNil returns a file's bytes, or nil when it does not exist.
func readOrNil(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restore sets a file's bytes, removing it for nil.
func restore(t *testing.T, path string, data []byte) {
	t.Helper()
	var err error
	if data == nil {
		err = os.Remove(path)
	} else {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// checkArchive asserts that s lists exactly want (IDs, Seqs, labels, meta
// fields, in order), that every record loads with its listed Seq and label,
// and that the next Put takes an unused sequence number of at least
// nextSeq. It returns that Put's meta.
func checkArchive(t *testing.T, s *Store, want []Meta, nextSeq int64) Meta {
	t.Helper()
	if got := s.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("listing:\n%+v\nwant\n%+v", got, want)
	}
	for _, m := range want {
		rec, err := s.Get(m.ID)
		if err != nil {
			t.Fatalf("get %s: %v", m.ID, err)
		}
		if rec.Seq != m.Seq || rec.Label != m.Label {
			t.Fatalf("record %s: seq %d label %q, listed seq %d label %q",
				m.ID, rec.Seq, rec.Label, m.Seq, m.Label)
		}
	}
	meta, _, err := s.Put(testRecord("after-reopen", 8e9))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq < nextSeq {
		t.Fatalf("next Put got Seq %d, want >= %d", meta.Seq, nextSeq)
	}
	for _, m := range want {
		if m.Seq == meta.Seq {
			t.Fatalf("next Put reused Seq %d of %s", meta.Seq, m.ID)
		}
	}
	if s.Len() != len(want)+1 {
		t.Fatalf("len after Put = %d, want %d", s.Len(), len(want)+1)
	}
	return meta
}

// TestPutCrashStates rebuilds the on-disk state a crash leaves after each
// write step of Put — shards.json (the sequence reservation), then the
// record file, then the shard index — and checks that a reopen neither loses
// nor duplicates a record, keeps every Seq and label, and never reuses a
// sequence number.
func TestPutCrashStates(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rec := testRecord(fmt.Sprintf("c%d", i), int64(3e9+i))
		rec.Label = fmt.Sprintf("label-%d", i)
		if _, _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	committed := s.List()

	pending := testRecord("pending", 9e9)
	pending.Label = "pending"
	pending.Version = Version
	id := ContentID(pending)
	layoutPath := filepath.Join(base, layoutFile)
	idxPath := filepath.Join(shardDir(base, shardOf(id, 2)), indexFile)
	recPath := filepath.Join(shardDir(base, shardOf(id, 2)), runsDir, id+".json")
	oldLayout, oldIdx := readOrNil(t, layoutPath), readOrNil(t, idxPath)
	pendingMeta, _, err := s.Put(pending)
	if err != nil {
		t.Fatal(err)
	}
	newLayout, newIdx := readOrNil(t, layoutPath), readOrNil(t, idxPath)

	for _, tc := range []struct {
		name                       string
		layout, record, shardIndex bool // which of the Put's writes landed
	}{
		{"shards.json written", true, false, false},
		{"record file written", true, true, false},
		{"shard index written", true, true, true},
		{"shard index written, shards.json not", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			pick := func(landed bool, before, after []byte) []byte {
				if landed {
					return after
				}
				return before
			}
			rel := func(p string) string {
				r, err := filepath.Rel(base, p)
				if err != nil {
					t.Fatal(err)
				}
				return filepath.Join(dir, r)
			}
			restore(t, rel(layoutPath), pick(tc.layout, oldLayout, newLayout))
			restore(t, rel(idxPath), pick(tc.shardIndex, oldIdx, newIdx))
			if !tc.record {
				restore(t, rel(recPath), nil)
			}

			s2, err := Open(dir, Options{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]Meta(nil), committed...)
			if tc.shardIndex {
				want = append(want, pendingMeta)
			}
			checkArchive(t, s2, want, pendingMeta.Seq)

			// Archiving the pending record again lists it exactly once.
			again := testRecord("pending", 9e9)
			again.Label = "pending"
			if _, _, err := s2.Put(again); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, m := range s2.List() {
				if m.ID == id {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("pending record listed %d times", n)
			}
		})
	}
}

// TestMigrationCrashStates rebuilds the on-disk state a crash leaves after
// each step of migrating a legacy single-index archive — records partly and
// fully re-filed, shards.json written, legacy runs/ removed — and reopens it
// at a different shard count. No record may be lost or duplicated, every
// Seq, label and the eviction count survive, and the shard count is the one
// the committed layout recorded (or the reopen's, if nothing was committed).
func TestMigrationCrashStates(t *testing.T) {
	src := t.TempDir()
	var recs []*Record
	for i := 0; i < 9; i++ {
		rec := testRecord(fmt.Sprintf("legacy%d", i), int64(2e9+i))
		rec.Label = fmt.Sprintf("label-%d", i)
		recs = append(recs, rec)
	}
	legacy := writeLegacy(t, src, 5, recs)

	migrated := t.TempDir()
	copyDir(t, src, migrated)
	s, err := Open(migrated, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.List(), legacy) {
		t.Fatalf("migration changed the listing:\n%+v\nvs\n%+v", s.List(), legacy)
	}

	for _, tc := range []struct {
		name       string
		shards     int  // shard dirs of the 3-shard migration present
		layout     bool // shards.json written
		legacyRuns bool // legacy runs/ still present
		legacyIdx  bool // legacy index.json still present
		wantShards int
	}{
		{"records partly re-filed", 1, false, true, true, 2},
		{"records re-filed", 3, false, true, true, 2},
		{"shards.json written", 3, true, true, true, 3},
		{"legacy runs removed", 3, true, false, true, 3},
		{"legacy index removed", 3, true, false, false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, migrated, dir)
			for k := tc.shards; k < 3; k++ {
				if err := os.RemoveAll(shardDir(dir, k)); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.layout {
				restore(t, filepath.Join(dir, layoutFile), nil)
			}
			if tc.legacyRuns {
				copyDir(t, filepath.Join(src, runsDir), filepath.Join(dir, runsDir))
			}
			if tc.legacyIdx {
				restore(t, filepath.Join(dir, indexFile), readOrNil(t, filepath.Join(src, indexFile)))
			}

			s2, err := Open(dir, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(s2.shards) != tc.wantShards {
				t.Fatalf("shards = %d, want %d", len(s2.shards), tc.wantShards)
			}
			if s2.EvictedTotal() != 5 {
				t.Fatalf("evicted total = %d, want 5", s2.EvictedTotal())
			}
			for _, f := range []string{indexFile, runsDir} {
				if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
					t.Fatalf("legacy %s still present (err=%v)", f, err)
				}
			}
			next := checkArchive(t, s2, legacy, 14)
			if next.Seq != 14 {
				t.Fatalf("next Seq = %d, want 14", next.Seq)
			}
		})
	}
}

// TestLegacyIndexBesideLayoutMerged: records an older build appended as a
// root index.json beside shards.json are merged into the shards at fresh
// sequence numbers instead of staying invisible.
func TestLegacyIndexBesideLayoutMerged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	for i := 0; i < 3; i++ {
		rec := testRecord(fmt.Sprintf("sharded%d", i), int64(1e9+i))
		recs = append(recs, rec)
		if _, _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	sharded := s.List()
	// The stray index repeats one sharded record and adds two new ones,
	// numbered by its own counter from 0.
	a, b := testRecord("stray-a", 2e9), testRecord("stray-b", 2e9+1)
	a.Label, b.Label = "stray-a", "stray-b"
	writeLegacy(t, dir, 0, []*Record{testRecord("sharded1", 1e9+1), a, b})

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Meta(nil), sharded...),
		Meta{ID: a.ID, Seq: 3, Label: "stray-a", Engine: a.Engine, Job: a.Job, Workers: a.Workers, MakespanNS: a.MakespanNS},
		Meta{ID: b.ID, Seq: 4, Label: "stray-b", Engine: b.Engine, Job: b.Job, Workers: b.Workers, MakespanNS: b.MakespanNS})
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("stray index.json still present (err=%v)", err)
	}
	checkArchive(t, s2, want, 5)
}

// TestStoreConcurrentUse: the store guards its own state, so concurrent
// Puts and reads need no caller lock (run under -race).
func TestStoreConcurrentUse(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := s.Put(testRecord(fmt.Sprintf("w%d-%d", w, i), int64(1e9+i))); err != nil {
					t.Error(err)
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for _, m := range s.List() {
					if _, err := s.Get(m.ID); err != nil {
						t.Error(err)
					}
				}
				_ = s.Len() + int(s.EvictedTotal())
			}
		}()
	}
	wg.Wait()
	list := s.List()
	if len(list) != writers*each {
		t.Fatalf("len = %d, want %d", len(list), writers*each)
	}
	for i, m := range list {
		if m.Seq != int64(i) {
			t.Fatalf("list[%d].Seq = %d: sequence numbers not dense and unique", i, m.Seq)
		}
	}
}
