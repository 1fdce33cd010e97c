package tea_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"teasim/tea"
	"teasim/tea/spec"
	"teasim/tea/store"
)

// stubResult is a deterministic fake simulation outcome: same (workload,
// config) in, same Result out, like the real simulator.
func stubResult(w string, c tea.Config) tea.Result {
	return tea.Result{
		Workload:     w,
		Mode:         c.Mode,
		Cycles:       uint64(len(w))*1000 + uint64(slices.Index(spec.Presets(), c.Mode.String())) + 1,
		Instructions: c.MaxInstructions,
	}
}

// TestCancelJournalResume is the kill/resume contract end to end at the
// library level: a batch cancelled mid-flight keeps its completed prefix, the
// result store holds exactly the completed cells, and a resumed engine reads
// those back through its cell cache and re-simulates only the missing ones
// to an identical final state.
func TestCancelJournalResume(t *testing.T) {
	dir := t.TempDir()
	jobs := []tea.Job{
		{Workload: "bfs", Cfg: tea.Config{Mode: tea.ModeBaseline, MaxInstructions: 1000, Scale: 1}},
		{Workload: "bfs", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: tea.Config{Mode: tea.ModeBaseline, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}},
	}

	// Interrupted run: single worker for a deterministic completion prefix;
	// the third cell observes the cancellation mid-simulation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e1 := tea.NewEngine(1, tea.WithCellCache(tea.NewCellCache(j1)), tea.WithRunFunc(func(ctx context.Context, w string, c tea.Config) (tea.Result, error) {
		calls++
		if calls == 3 {
			cancel() // the SIGINT arrives while cell 3 is in flight
			return tea.Result{}, ctx.Err()
		}
		return stubResult(w, c), nil
	}))
	partial, err := e1.MapContext(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial[0], stubResult("bfs", jobs[0].Cfg)) ||
		!reflect.DeepEqual(partial[1], stubResult("bfs", jobs[1].Cfg)) {
		t.Errorf("completed prefix lost: %+v", partial[:2])
	}
	if partial[2].Cycles != 0 || partial[3].Cycles != 0 {
		t.Errorf("uncompleted cells carry results: %+v", partial[2:])
	}

	// The store holds exactly the completed cells.
	j2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Dropped != 0 || j2.Len() != 2 {
		t.Fatalf("reopened store: %d entries, %d dropped; want exactly the 2 completed cells", j2.Len(), st.Dropped)
	}
	for i, j := range jobs[:2] {
		key, _ := tea.MemoKeyOf(j.Workload, j.Cfg)
		if res, ok := j2.Get(key); !ok || !reflect.DeepEqual(res, partial[i]) {
			t.Fatalf("stored cell %d: %+v (ok=%v), want %+v", i, res, ok, partial[i])
		}
	}

	// Resumed run: reads the store through its cell cache, re-simulates only
	// the 2 missing cells, and lands on results identical to a clean
	// uninterrupted run.
	calls2 := 0
	e2 := tea.NewEngine(1, tea.WithCellCache(tea.NewCellCache(j2)), tea.WithRunFunc(func(ctx context.Context, w string, c tea.Config) (tea.Result, error) {
		calls2++
		return stubResult(w, c), nil
	}))
	resumed, err := e2.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if calls2 != 2 {
		t.Errorf("resumed run simulated %d cells, want only the 2 missing", calls2)
	}
	ms := e2.MemoStats()
	if ms.StoreHits != 2 || ms.Entries != 4 {
		t.Errorf("resumed MemoStats = %+v, want 4 entries of which 2 store hits", ms)
	}

	e3 := tea.NewEngine(1, tea.WithRunFunc(func(ctx context.Context, w string, c tea.Config) (tea.Result, error) {
		return stubResult(w, c), nil
	}))
	clean, err := e3.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Errorf("resumed results differ from a clean run:\nresumed: %+v\nclean:   %+v", resumed, clean)
	}

	// The resumed run wrote only the cells it simulated — no duplicates.
	j3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if st := j3.Stats(); st.Dropped != 0 {
		t.Fatalf("store after resume: %d dropped (%d superseded)", st.Dropped, st.Superseded)
	}
	if n := j3.Len(); n != 4 {
		t.Errorf("store holds %d records after resume, want 4", n)
	}
}
