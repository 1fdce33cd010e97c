package tea

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"teasim/tea/spec"
)

// TestShootoutKindsRegistryDriven asserts the shootout's kind list is the
// spec registry: every registered kind appears exactly once, with the
// paper's none/tea/runahead rows leading.
func TestShootoutKindsRegistryDriven(t *testing.T) {
	kinds := ShootoutKinds()
	if len(kinds) < 5 {
		t.Fatalf("shootout covers %d kinds, want >= 5 (got %v)", len(kinds), kinds)
	}
	want := []spec.CompanionKind{spec.CompanionNone, spec.CompanionTEA, spec.CompanionRunahead}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("kind order %v, want %v leading", kinds, want)
		}
	}
	seen := map[spec.CompanionKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("kind %q listed twice", k)
		}
		seen[k] = true
	}
	for _, k := range spec.Kinds() {
		if !seen[k] {
			t.Fatalf("registered kind %q missing from the shootout", k)
		}
	}
}

// TestShootoutBaselineMemoized asserts the N-way shootout simulates each
// workload's baseline exactly once: the opening "none" pass populates the
// engine memo and every kind's speedup batch hits it. Cells are counted by
// resolved-spec fingerprint, the engine's own memo identity.
func TestShootoutBaselineMemoized(t *testing.T) {
	e := NewEngine(4)
	var mu sync.Mutex
	counts := map[string]int{}
	e.runFn = func(_ context.Context, w string, c Config) (Result, error) {
		fp, err := c.SpecFingerprint()
		if err != nil {
			return Result{}, err
		}
		mu.Lock()
		counts[fmt.Sprintf("%s/%x", w, fp)]++
		mu.Unlock()
		// Distinct nonzero cycles keep speedup math finite.
		return Result{Workload: w, Mode: c.Mode, Cycles: 100 + fp%37, Accuracy: 1}, nil
	}
	wls := []string{"bfs", "mcf"}
	o := ExpOptions{MaxInstructions: 1000, Workloads: wls, Engine: e}
	rep, err := RunExperiment(context.Background(), "shootout", o)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows().([]ShootoutRow)
	kinds := ShootoutKinds()
	if want := len(kinds) * len(wls); len(rows) != want {
		t.Fatalf("%d rows, want %d (%d kinds x %d workloads)", len(rows), want, len(kinds), len(wls))
	}
	for cell, n := range counts {
		if n != 1 {
			t.Errorf("cell %s simulated %d times, want exactly 1", cell, n)
		}
	}
	// One baseline + one cell per non-none kind, per workload.
	if want := len(wls) * len(kinds); len(counts) != want {
		t.Errorf("%d distinct cells simulated, want %d", len(counts), want)
	}
	// The memo must prove the sharing: every kind's speedup batch re-requests
	// the baseline and hits the cache instead of re-simulating.
	ms := e.MemoStats()
	if ms.Entries != len(counts) {
		t.Errorf("memo entries = %d, want %d", ms.Entries, len(counts))
	}
	if want := len(wls) * (len(kinds) - 1); ms.Hits != want {
		t.Errorf("memo hits = %d, want %d (baselines shared across kinds)", ms.Hits, want)
	}
}

// TestShootoutMatchesFig8Rows asserts the shootout's tea and runahead rows
// are bit-identical to the Fig. 8 rows for the same options: the shootout
// builds those cells from the same Mode configs, so the speedups must agree
// exactly — on independent engines, not via the memo cache.
func TestShootoutMatchesFig8Rows(t *testing.T) {
	opts := func() ExpOptions {
		return ExpOptions{
			MaxInstructions: 50_000,
			Workloads:       []string{"mcf", "bfs"},
			Engine:          NewEngine(2),
		}
	}
	rowsOf := func(name string) any {
		t.Helper()
		rep, err := RunExperiment(context.Background(), name, opts())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows()
	}
	srows := rowsOf("shootout").([]ShootoutRow)
	f8 := rowsOf("fig8").([]Fig8Row)
	sp := map[string]map[string]float64{}
	for _, r := range srows {
		if sp[r.Kind] == nil {
			sp[r.Kind] = map[string]float64{}
		}
		sp[r.Kind][r.Workload] = r.Speedup
	}
	for _, r := range f8 {
		if got := sp["tea"][r.Workload]; got != r.TEA {
			t.Errorf("%s: shootout tea speedup %v != fig8 %v", r.Workload, got, r.TEA)
		}
		if got := sp["runahead"][r.Workload]; got != r.Runahead {
			t.Errorf("%s: shootout runahead speedup %v != fig8 %v", r.Workload, got, r.Runahead)
		}
	}
}

// TestShootoutReport asserts the rendered table is the N-way Fig-8 shape:
// per-kind rows with coverage/accuracy/timeliness columns and a geomean
// footer per kind.
func TestShootoutReport(t *testing.T) {
	rows := []ShootoutRow{
		{Workload: "bfs", Kind: "none", Speedup: 1, Accuracy: 1},
		{Workload: "bfs", Kind: "tea", Speedup: 1.10, Coverage: 0.5, Accuracy: 0.9, Saved: 12},
		{Workload: "bfs", Kind: "runahead", Speedup: 1.07, Coverage: 0.4, Accuracy: 0.97, Saved: 15},
		{Workload: "bfs", Kind: "bullseye", Speedup: 1.02, Coverage: 0.2, Accuracy: 0.99, Saved: 15},
		{Workload: "bfs", Kind: "ldbp", Speedup: 1.03, Coverage: 0.3, Accuracy: 1, Saved: 15},
		{Workload: "bfs", Kind: "twowin", Speedup: 1.01, Coverage: 0.4, Accuracy: 1, Saved: 1.5},
	}
	var sb strings.Builder
	if err := shootoutReport(rows).write(&sb, FormatText); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"kind", "coverage", "accuracy", "saved/branch",
		"geomean tea", "geomean runahead", "geomean bullseye",
		"geomean ldbp", "geomean twowin",
		"+10.0%", "90.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	rep, ok := LookupExperiment("shootout")
	if !ok {
		t.Fatal("shootout not in the experiment registry")
	}
	if rep.Description == "" || rep.Title == "" {
		t.Fatal("shootout registry entry missing title/description")
	}
}
