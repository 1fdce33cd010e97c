package tea

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func journalRecord(workload string, mode Mode, cycles uint64) JournalRecord {
	return JournalRecord{
		MemoKey: MemoKey{Workload: workload, Mode: mode, Spec: 0xdeadbeef, MaxInstr: 1_000_000, Scale: 1},
		Result:  Result{Workload: workload, Mode: mode, Cycles: cycles, Instructions: 1_000_000},
	}
}

// sealedLine seals rec and renders it as one persisted JSON line.
func sealedLine(t *testing.T, rec JournalRecord) string {
	t.Helper()
	sealed, err := rec.Seal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// readRecords decodes one record per line, keeping those that verify and
// counting the rest as dropped.
func readRecords(data string) (recs []JournalRecord, dropped int) {
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		var rec JournalRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || !rec.Verify() {
			dropped++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, dropped
}

// TestJournalRoundTrip: a sealed record survives its JSON line whole and
// verifies on the way back in.
func TestJournalRoundTrip(t *testing.T) {
	want := []JournalRecord{
		journalRecord("bfs", ModeBaseline, 100),
		journalRecord("bfs", ModeTEA, 80),
		journalRecord("mcf", ModeBaseline, 300),
	}
	var data strings.Builder
	for _, rec := range want {
		data.WriteString(sealedLine(t, rec))
	}

	got, dropped := readRecords(data.String())
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].V != journalVersion || got[i].Checksum == "" {
			t.Errorf("record %d: v=%d checksum=%q, want a sealed record", i, got[i].V, got[i].Checksum)
		}
		// Seal stamps the version and checksum; compare the payload.
		got[i].V, got[i].Checksum = 0, ""
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// An unsealed record carries no checksum and never verifies.
	if want[0].Verify() {
		t.Error("an unsealed record verified")
	}
}

// TestJournalDropsCorruptRecords: anything torn or corrupted is dropped
// rather than poisoning a resume.
func TestJournalDropsCorruptRecords(t *testing.T) {
	lines := []string{
		sealedLine(t, journalRecord("bfs", ModeBaseline, 100)),
		sealedLine(t, journalRecord("mcf", ModeTEA, 200)),
	}
	if got, dropped := readRecords(lines[0] + lines[1]); len(got) != 2 || dropped != 0 {
		t.Fatalf("intact lines: got %d records, %d dropped, want 2, 0", len(got), dropped)
	}
	// Bit-flip inside the first intact record, then simulate a crash mid-
	// append: the tail record is torn halfway through its line.
	flipped := strings.Replace(lines[0], `"workload":"bfs"`, `"workload":"zzz"`, 1)
	if flipped == lines[0] {
		t.Fatal("corruption substitution found nothing to replace")
	}
	torn := lines[1][:len(lines[1])/2]
	garbage := "not json at all\n" + `{"v":99}` + "\n"

	got, dropped := readRecords(flipped + garbage + torn)
	if len(got) != 0 {
		t.Errorf("recovered %d records from all-corrupt lines, want 0", len(got))
	}
	// flipped (checksum mismatch) + garbage + wrong version + torn tail.
	if dropped != 4 {
		t.Errorf("dropped = %d, want 4", dropped)
	}
}

// TestSeedJournalSkipsBadAndDuplicateRecords: stored cells reach an engine
// through its cell cache, as store hits. A key whose spec fingerprint is
// not hex fails to decode, so the store drops its line and it never reaches
// an engine; of two lines for one key the store keeps the newest
// (TestStoreNewestWins).
func TestSeedJournalSkipsBadAndDuplicateRecords(t *testing.T) {
	var bad JournalRecord
	line := `{"v":1,"workload":"mcf","mode":"tea","spec":"not-hex","max_instr":1,"scale":1,"result":{}}`
	if err := json.Unmarshal([]byte(line), &bad); err == nil {
		t.Fatalf("decoded a record with a non-hex spec: %+v", bad)
	}
	jobs := []Job{
		{Workload: "bfs", Cfg: Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "bfs", Cfg: Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}},
	}
	st := &memStore{}
	for i, j := range jobs[:2] {
		key, _ := MemoKeyOf(j.Workload, j.Cfg)
		st.Put(JournalRecord{MemoKey: key, Result: Result{Workload: j.Workload, Mode: j.Cfg.Mode, Cycles: uint64(100 * (i + 1))}})
	}
	e := NewEngine(1, WithCellCache(NewCellCache(st)), WithRunFunc(func(ctx context.Context, w string, c Config) (Result, error) {
		t.Errorf("simulated %s/%s, want a store hit", w, c.Mode)
		return Result{}, nil
	}))
	res, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cycles != 100 || res[1].Cycles != 200 || !reflect.DeepEqual(res[2], res[0]) {
		t.Errorf("results %+v, want the stored cells", res)
	}
	if ms := e.MemoStats(); ms.Entries != 2 || ms.StoreHits != 2 || ms.Hits != 1 || ms.Simulated != 0 {
		t.Errorf("MemoStats = %+v, want 2 entries, both store hits, and 1 memo hit", ms)
	}
}

// TestMemoKeyString pins a key's canonical address, which picks its store
// shard, against the format it has always had.
func TestMemoKeyString(t *testing.T) {
	for _, k := range []MemoKey{
		{Workload: "bfs", Mode: ModeTEA, Spec: 0x0629c0a37fa329ab, MaxInstr: 50_000, Scale: 1},
		{Workload: "mcf", Mode: ModeBaseline, Spec: 0, MaxInstr: 0, Scale: 0},
		{Workload: strings.Repeat("w", 200), Mode: Mode("warp-drive"), Spec: 0xffffffffffffffff, MaxInstr: 1<<64 - 1, Scale: -3},
	} {
		want := fmt.Sprintf("%s/%s@%016x/n%d/s%d", k.Workload, k.Mode, uint64(k.Spec), k.MaxInstr, k.Scale)
		if got := k.String(); got != want {
			t.Errorf("MemoKey.String() = %q, want %q", got, want)
		}
		if got, want := k.Spec.String(), fmt.Sprintf("%016x", uint64(k.Spec)); got != want {
			t.Errorf("Fingerprint.String() = %q, want %q", got, want)
		}
	}
}
