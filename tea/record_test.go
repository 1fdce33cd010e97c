package tea

import (
	"bufio"
	"encoding/json"
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

func TestSeedJournalSkipsBadAndDuplicateRecords(t *testing.T) {
	// A key whose spec fingerprint is not hex fails to decode, so the store
	// drops its line and it never reaches SeedJournal.
	var bad JournalRecord
	line := `{"v":1,"workload":"mcf","mode":"tea","spec":"not-hex","max_instr":1,"scale":1,"result":{}}`
	if err := json.Unmarshal([]byte(line), &bad); err == nil {
		t.Fatalf("decoded a record with a non-hex spec: %+v", bad)
	}
	e := NewEngine(1)
	recs := []JournalRecord{
		journalRecord("bfs", ModeBaseline, 100),
		journalRecord("bfs", ModeBaseline, 999), // duplicate key: first wins
		journalRecord("mcf", ModeTEA, 200),
	}
	if n := e.SeedJournal(recs); n != 2 {
		t.Fatalf("seeded %d entries, want 2", n)
	}
	ms := e.MemoStats()
	if ms.Entries != 2 || ms.Seeded != 2 {
		t.Errorf("MemoStats = %+v, want 2 entries, 2 seeded", ms)
	}
}
