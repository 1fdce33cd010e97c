// Package store is the one writer and reader of result records: a sharded,
// content-addressed, durable log of completed simulation cells. Results are
// addressed by the engine's memo key (tea.MemoKey) — workload, mode,
// resolved-spec fingerprint, budget, scale — so any two requests naming the
// same machine point share one stored simulation, however they spelled it
// (preset, custom spec, or patches). `teaexp -journal` (resume), every fabric
// worker (crash recovery) and `teasrvd -store` (the daemon's cache) each open
// a Store.
//
// Layout: a directory of shard-NNN.jsonl files. Each line is a small
// envelope {"at": unixSeconds, "rec": <sealed tea.JournalRecord>}; the inner
// record carries its own version and checksum (tea.JournalRecord.Seal), so a
// torn or bit-rotted line is detected and dropped on open. Appends hash the
// key onto a shard and fsync, keeping writer contention per-shard rather
// than global.
//
// Entries older than the configured TTL stop being served (a Get counts
// Expired and misses); Compact rewrites every shard dropping expired and
// superseded records, bounding disk growth for a daemon that runs for
// months.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"teasim/tea"
)

// Options configures a store.
type Options struct {
	// Shards is the shard-file count (0 = 8). More shards mean less append
	// contention; the count may change between opens — existing records are
	// re-read from whatever file holds them, new appends use the new layout.
	Shards int
	// TTL bounds how long an entry is served after it was written (0 =
	// forever). Expired entries miss on Get and are dropped by Compact.
	TTL time.Duration
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries    int    // live (non-expired at last touch) indexed entries
	Hits       uint64 // Gets served from the index
	Misses     uint64 // Gets with no usable entry
	Expired    uint64 // Gets that found only an expired entry
	Puts       uint64 // records appended this process
	Dropped    int    // lines dropped while opening (Corrupt + Superseded)
	Corrupt    int    // torn or checksum-failing lines dropped while opening
	Superseded int    // intact lines shadowed by a newer line of their key
}

// envelope is the on-disk line framing: the write timestamp (for TTL) around
// the sealed journal record.
type envelope struct {
	At  int64             `json:"at"`
	Rec tea.JournalRecord `json:"rec"`
}

// entry is one indexed result.
type entry struct {
	rec tea.JournalRecord
	at  int64
}

// shard is one index partition with its backing file.
type shard struct {
	mu    sync.Mutex
	f     *os.File
	index map[tea.MemoKey]entry
	buf   []byte
}

// Store is a sharded content-addressed result store. It is safe for
// concurrent use.
type Store struct {
	dir    string
	ttl    time.Duration
	now    func() time.Time
	shards []*shard

	mu         sync.Mutex // counters
	hits       uint64
	misses     uint64
	expired    uint64
	puts       uint64
	corrupt    int
	superseded int
}

// Open opens (creating if needed) the store rooted at dir, reading every
// existing shard file and indexing the intact records. Torn lines and
// records that fail their checksum are dropped (Stats.Corrupt); a duplicate
// key keeps the newest write (Stats.Superseded), matching compaction. A dir
// that names a regular file is an error.
func Open(dir string, o Options) (*Store, error) {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, ttl: o.TTL, now: o.Now, shards: make([]*shard, o.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{index: make(map[tea.MemoKey]entry)}
	}
	// Read every shard file present, whatever shard count wrote it; each
	// record is indexed under the CURRENT layout's shard so lookups and
	// compaction agree on ownership.
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	for _, path := range matches {
		if err := s.load(path); err != nil {
			return nil, err
		}
	}
	for i, sh := range s.shards {
		f, err := openAppend(s.shardPath(i))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: open shard: %w", err)
		}
		sh.f = f
	}
	return s, nil
}

// openAppend opens a shard file for appending. A torn final line (a write
// cut short by a crash) is first terminated with a newline, so the next
// record starts on a fresh line instead of joining the fragment and failing
// its checksum. The fragment stays, and keeps counting as corrupt, until a
// Compact.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > 0 {
		last := []byte{0}
		if _, err = f.ReadAt(last, fi.Size()-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.jsonl", i))
}

// shardOf maps a key onto its owning shard.
func (s *Store) shardOf(k tea.MemoKey) *shard {
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	return s.shards[h.Sum64()%uint64(len(s.shards))]
}

// load indexes one existing shard file.
func (s *Store) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	corrupt, superseded := 0, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env envelope
		if json.Unmarshal(line, &env) != nil || !env.Rec.Verify() {
			corrupt++
			continue
		}
		key := env.Rec.MemoKey
		sh := s.shardOf(key)
		if have, ok := sh.index[key]; ok {
			superseded++ // one of the two lines is shadowed
			if have.at > env.At {
				continue
			}
		}
		sh.index[key] = entry{rec: env.Rec, at: env.At}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: load %s: %w", path, err)
	}
	s.mu.Lock()
	s.corrupt += corrupt
	s.superseded += superseded
	s.mu.Unlock()
	return nil
}

// fresh reports whether an entry written at unix second `at` is still within
// the TTL.
func (s *Store) fresh(at int64) bool {
	return s.ttl == 0 || s.now().Unix()-at < int64(s.ttl/time.Second)
}

// Get returns the stored result for a key, if present and fresh.
func (s *Store) Get(k tea.MemoKey) (tea.Result, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	ent, ok := sh.index[k]
	if ok && !s.fresh(ent.at) {
		delete(sh.index, k) // lazily retire; the line dies at the next Compact
		ok = false
		sh.mu.Unlock()
		s.mu.Lock()
		s.expired++
		s.misses++
		s.mu.Unlock()
		return tea.Result{}, false
	}
	sh.mu.Unlock()
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return tea.Result{}, false
	}
	return ent.rec.Result, true
}

// Put durably appends one record (sealed, timestamped, fsynced) and indexes
// it. Put implements tea.JournalWriter, so a store can back an engine
// directly via tea.WithJournal.
func (s *Store) Put(rec tea.JournalRecord) error {
	sealed, err := rec.Seal()
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	key := sealed.MemoKey
	at := s.now().Unix()
	line, err := json.Marshal(envelope{At: at, Rec: sealed})
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.buf = append(sh.buf[:0], line...)
	sh.buf = append(sh.buf, '\n')
	if _, err := sh.f.Write(sh.buf); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("store: put sync: %w", err)
	}
	sh.index[key] = entry{rec: sealed, at: at}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// Len returns the number of indexed entries (including any not yet noticed
// to be expired).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Records returns every fresh indexed record, sorted by key so callers see
// a stable order. `teaexp -resume` seeds its engine from them
// (tea.Engine.SeedJournal).
func (s *Store) Records() []tea.JournalRecord {
	var recs []tea.JournalRecord
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, ent := range sh.index {
			if s.fresh(ent.at) {
				recs = append(recs, ent.rec)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].MemoKey.String() < recs[j].MemoKey.String() })
	return recs
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	// Count entries before taking s.mu: Put holds a shard lock while
	// touching the counters, so nesting the locks the other way here would
	// invert the order.
	entries := s.Len()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:    entries,
		Hits:       s.hits,
		Misses:     s.misses,
		Expired:    s.expired,
		Puts:       s.puts,
		Dropped:    s.corrupt + s.superseded,
		Corrupt:    s.corrupt,
		Superseded: s.superseded,
	}
}

// CompactStats reports one compaction pass.
type CompactStats struct {
	Kept    int // live records rewritten
	Expired int // records dropped for age
}

// Compact rewrites every shard file from its live index, dropping expired
// and superseded records, then atomically replaces the old file. The store
// stays usable throughout; each shard is locked only while its own file is
// rewritten.
func (s *Store) Compact() (CompactStats, error) {
	var cs CompactStats
	for i, sh := range s.shards {
		sh.mu.Lock()
		kept := make([]envelope, 0, len(sh.index))
		for key, ent := range sh.index {
			if !s.fresh(ent.at) {
				delete(sh.index, key)
				cs.Expired++
				continue
			}
			kept = append(kept, envelope{At: ent.at, Rec: ent.rec})
		}
		err := s.rewriteShard(i, sh, kept)
		sh.mu.Unlock()
		if err != nil {
			return cs, err
		}
		cs.Kept += len(kept)
	}
	return cs, nil
}

// rewriteShard writes the kept envelopes to a temp file, fsyncs, renames it
// over the shard, and swaps the shard's append handle. Called with the shard
// locked.
func (s *Store) rewriteShard(i int, sh *shard, kept []envelope) error {
	path := s.shardPath(i)
	tmp, err := os.CreateTemp(s.dir, "compact-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, env := range kept {
		line, err := json.Marshal(env)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if sh.f != nil {
		sh.f.Close()
	}
	f, err := openAppend(path)
	if err != nil {
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	sh.f = f
	return nil
}

// Close closes every shard file. The store must not be used afterwards.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.f != nil {
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}
