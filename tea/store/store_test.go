package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"teasim/tea"
)

// testRec builds a distinct record for index i.
func testRec(i int) tea.JournalRecord {
	return tea.JournalRecord{
		MemoKey: tea.MemoKey{
			Workload: fmt.Sprintf("wl%d", i),
			Mode:     tea.ModeTEA,
			Spec:     tea.Fingerprint(0xdead0000 + i),
			MaxInstr: 1000,
			Scale:    1,
		},
		Result: tea.Result{Workload: fmt.Sprintf("wl%d", i), Mode: tea.ModeTEA, Cycles: uint64(100 + i), Instructions: 1000},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		res, ok := s.Get(testRec(i).MemoKey)
		if !ok || res.Cycles != uint64(100+i) {
			t.Fatalf("get %d: ok=%v cycles=%d", i, ok, res.Cycles)
		}
	}
	if _, ok := s.Get(tea.MemoKey{Workload: "nope"}); ok {
		t.Fatal("got a result for an unknown key")
	}
	st := s.Stats()
	if st.Entries != n || st.Hits != n || st.Misses != 1 || st.Puts != n {
		t.Fatalf("stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything persisted, spread over the shard files.
	s2, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("reopened with %d entries, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(testRec(i).MemoKey); !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
	}
	// Every record comes back whole, sealed, in key order.
	recs := s2.Records()
	if len(recs) != n {
		t.Fatalf("Records() = %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if !rec.Verify() {
			t.Errorf("record %d does not verify: %+v", i, rec)
		}
		if i > 0 && recs[i-1].MemoKey.String() >= rec.MemoKey.String() {
			t.Errorf("records out of key order at %d", i)
		}
		var idx int
		fmt.Sscanf(rec.Workload, "wl%d", &idx)
		want := testRec(idx)
		rec.V, rec.Checksum = 0, ""
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("record round trip: got %+v, want %+v", rec, want)
		}
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	nonEmpty := 0
	for _, p := range shards {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("expected records spread over shards, got %d non-empty of %d", nonEmpty, len(shards))
	}
}

func TestStoreDropsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "shard-000.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("shard has %d lines, want 2", len(lines))
	}
	// A bit-flip inside an intact record fails its checksum.
	flipped := strings.Replace(lines[1], `"workload":"wl1"`, `"workload":"zzz"`, 1)
	if flipped == lines[1] {
		t.Fatal("corruption substitution found nothing to replace")
	}
	// Non-JSON garbage, a wrong record version, and a torn tail (a crash
	// mid-append) are dropped too.
	garbage := "not json at all\n" + `{"at":1,"rec":{"v":99}}` + "\n"
	torn := `{"at":1,"rec":{"v":1,"workload":"torn`
	if err := os.WriteFile(path, []byte(lines[0]+"\n"+flipped+"\n"+garbage+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("want the one intact record, got %d", s2.Len())
	}
	if _, ok := s2.Get(testRec(0).MemoKey); !ok {
		t.Fatal("intact record lost")
	}
	// flipped (checksum mismatch) + garbage + wrong version + torn tail.
	if st := s2.Stats(); st.Corrupt != 4 || st.Superseded != 0 || st.Dropped != 4 {
		t.Fatalf("corrupt/superseded/dropped = %d/%d/%d, want 4/0/4", st.Corrupt, st.Superseded, st.Dropped)
	}
}

// TestStoreSurvivesTornTail is a crash mid-append: the records before the
// torn line survive, and the first record written after the reopen does too
// instead of joining the fragment and failing its checksum.
func TestStoreSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "shard-000.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); s2.Len() != 1 || st.Corrupt != 1 {
		t.Fatalf("after the tear: %d entries, %d corrupt; want 1, 1", s2.Len(), st.Corrupt)
	}
	if err := s2.Put(testRec(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for _, i := range []int{0, 2} {
		if _, ok := s3.Get(testRec(i).MemoKey); !ok {
			t.Errorf("record %d lost", i)
		}
	}
	if st := s3.Stats(); s3.Len() != 2 || st.Corrupt != 1 {
		t.Fatalf("after the next put: %d entries, %d corrupt; want 2, 1", s3.Len(), st.Corrupt)
	}
}

func TestStoreMissingDirOpensEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "nope"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st != (Stats{}) || s.Records() != nil {
		t.Fatalf("missing dir: stats %+v, records %v; want empty", st, s.Records())
	}
}

// TestStoreRejectsJournalFile: a path naming a regular file — such as a
// single-file results journal — is an error, not an empty store.
func TestStoreRejectsJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":1,"workload":"bfs"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path, Options{}); err == nil {
		s.Close()
		t.Fatal("opened a regular file as a store")
	}
}

func TestStoreTTLAndCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	s, err := Open(dir, Options{Shards: 2, TTL: time.Hour, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Two generations an hour apart: the first expires, the second stays.
	for i := 0; i < 4; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Hour)
	for i := 4; i < 8; i++ {
		if err := s.Put(testRec(i)); err != nil {
			t.Fatal(err)
		}
	}

	if _, ok := s.Get(testRec(0).MemoKey); ok {
		t.Fatal("expired entry served")
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Expired)
	}
	if _, ok := s.Get(testRec(5).MemoKey); !ok {
		t.Fatal("fresh entry missed")
	}

	sizeBefore := shardBytes(t, dir)
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// testRec(0) was already lazily retired by the Get above; the other
	// three stale entries fall to Compact.
	if cs.Kept != 4 || cs.Expired != 3 {
		t.Fatalf("compact: %+v, want Kept=4 Expired=3", cs)
	}
	if sizeAfter := shardBytes(t, dir); sizeAfter >= sizeBefore {
		t.Fatalf("compaction did not shrink shards: %d -> %d bytes", sizeBefore, sizeAfter)
	}

	// The store stays writable and readable after compaction...
	if err := s.Put(testRec(8)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// ...and a reopen sees exactly the survivors: 4 fresh + 1 new.
	s2, err := Open(dir, Options{Shards: 2, TTL: time.Hour, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("reopened with %d entries, want 5", s2.Len())
	}
	for i := 4; i < 9; i++ {
		if res, ok := s2.Get(testRec(i).MemoKey); !ok || res.Cycles != uint64(100+i) {
			t.Fatalf("survivor %d: ok=%v cycles=%d", i, ok, res.Cycles)
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := s2.Get(testRec(i).MemoKey); ok {
			t.Fatalf("expired entry %d survived compaction + reopen", i)
		}
	}
}

func TestStoreNewestWins(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	s, err := Open(dir, Options{Shards: 1, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRec(0)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute)
	rec.Result.Cycles = 999
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if res, ok := s2.Get(rec.MemoKey); !ok || res.Cycles != 999 {
		t.Fatalf("want newest write (999 cycles), got ok=%v cycles=%d", ok, res.Cycles)
	}
	if s2.Len() != 1 {
		t.Fatalf("duplicate key indexed twice: len=%d", s2.Len())
	}
	if st := s2.Stats(); st.Superseded != 1 {
		t.Fatalf("superseded = %d, want 1", st.Superseded)
	}
}

// testdata/v1-store is a store directory written by the record format's
// first writer, with two shards, at unix second v1At and a minute later. It
// holds four live cells, an older copy of bfs/baseline shadowed by a newer
// line, and a torn tail: the second half of an mcf/baseline line is missing.
const v1At = 1_700_000_000

func v1Key(workload string, mode tea.Mode, spec tea.Fingerprint) tea.MemoKey {
	return tea.MemoKey{Workload: workload, Mode: mode, Spec: spec, MaxInstr: 50000, Scale: 1}
}

// openV1Copy opens a private copy of testdata/v1-store (Open terminates its
// torn tail, which must not touch the committed files).
func openV1Copy(t *testing.T) *Store {
	t.Helper()
	dir := t.TempDir()
	paths, err := filepath.Glob(filepath.Join("testdata", "v1-store", "shard-*.jsonl"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("testdata/v1-store: %v, %v", paths, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreReadsV1Store pins compatibility: a store written before this
// reader still opens with the same entries, drop counts and results.
func TestStoreReadsV1Store(t *testing.T) {
	s := openV1Copy(t)
	if st := s.Stats(); st.Entries != 4 || st.Corrupt != 1 || st.Superseded != 1 {
		t.Fatalf("stats %+v, want 4 entries, 1 corrupt, 1 superseded", st)
	}
	for _, want := range []struct {
		key          tea.MemoKey
		cycles       uint64
		instructions uint64
		ipc          float64
	}{
		{v1Key("bfs", tea.ModeBaseline, 0x180d6b7bd520bc42), 31853, 50001, 1.5697915358533217}, // the newer copy
		{v1Key("bfs", tea.ModeTEA, 0x0629c0a37fa329ab), 22185, 50000, 2.2537750732476898},
		{v1Key("mcf", tea.ModeBranchRunahead, 0xb218f5085d593f31), 93744, 50000, 0.5333674688513398},
		{v1Key("xz", tea.ModeTEA, 0x0629c0a37fa329ab), 17235, 50004, 2.901305483028721},
	} {
		res, ok := s.Get(want.key)
		if !ok {
			t.Errorf("%v missing", want.key)
			continue
		}
		if res.Workload != want.key.Workload || res.Mode != want.key.Mode || res.SpecHash != want.key.Spec.String() ||
			res.Cycles != want.cycles || res.Instructions != want.instructions || res.IPC != want.ipc {
			t.Errorf("%v: got %+v", want.key, res)
		}
	}
	if _, ok := s.Get(v1Key("mcf", tea.ModeBaseline, 0x180d6b7bd520bc42)); ok {
		t.Error("the torn mcf/baseline line was served")
	}
}

// TestStorePutGolden pins the line format: Put under the v1 store's clock
// writes, byte for byte, the line the first writer wrote for the same cell.
func TestStorePutGolden(t *testing.T) {
	v1 := openV1Copy(t)
	var golden []byte
	for _, name := range []string{"shard-000.jsonl", "shard-001.jsonl"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1-store", name))
		if err != nil {
			t.Fatal(err)
		}
		golden = append(golden, b...)
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1, Now: func() time.Time { return time.Unix(v1At, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range []tea.MemoKey{
		v1Key("bfs", tea.ModeTEA, 0x0629c0a37fa329ab),
		v1Key("mcf", tea.ModeBranchRunahead, 0xb218f5085d593f31),
		v1Key("xz", tea.ModeTEA, 0x0629c0a37fa329ab),
	} {
		res, ok := v1.Get(key)
		if !ok {
			t.Fatalf("%v missing from the v1 store", key)
		}
		if err := s.Put(tea.JournalRecord{MemoKey: key, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "shard-000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	for _, line := range lines {
		if !bytes.Contains(golden, append(line[:len(line):len(line)], '\n')) {
			t.Errorf("Put wrote a line the v1 writer did not:\n%s", line)
		}
	}
}

func shardBytes(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}
