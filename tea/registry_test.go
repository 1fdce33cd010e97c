package tea_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"teasim/tea"
)

// stubRun is a deterministic fake simulation for registry dispatch tests.
func stubRun(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
	cyc := uint64(2000 + 7*len(workload))
	if cfg.Mode != tea.ModeBaseline {
		cyc -= 150
	}
	return tea.Result{
		Workload:     workload,
		Mode:         cfg.Mode,
		Cycles:       cyc,
		Instructions: 9000,
		IPC:          9000 / float64(cyc),
		Coverage:     0.4,
		Accuracy:     0.85,
	}, nil
}

func TestExperimentCatalog(t *testing.T) {
	exps := tea.Experiments()
	if len(exps) == 0 {
		t.Fatal("empty experiment catalog")
	}
	// Paper order: the figures lead the catalog.
	for i, want := range []string{"fig5", "fig6", "fig7", "fig8", "fig9"} {
		if exps[i].Name != want {
			t.Errorf("catalog[%d] = %q, want %q", i, exps[i].Name, want)
		}
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Title == "" || e.Description == "" {
			t.Errorf("experiment %q lacks title or description", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig9big", "wide16", "fig10", "table3", "prefetchonly", "custom", "sens-blockcache"} {
		if !seen[want] {
			t.Errorf("catalog missing %q", want)
		}
	}

	names := tea.ExperimentNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("ExperimentNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestLookupExperiment(t *testing.T) {
	if _, ok := tea.LookupExperiment("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := tea.LookupExperiment("fig99"); ok {
		t.Error("fig99 unexpectedly found")
	}
	if _, err := tea.RunExperiment(context.Background(), "fig99", tea.ExpOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("RunExperiment(fig99) err = %v, want unknown experiment", err)
	}
}

// A repeated workload would print its row twice and count twice in every
// geomean, so RunExperiment refuses it before running any cell.
func TestRunExperimentRejectsRepeatedWorkload(t *testing.T) {
	cells := 0
	run := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		cells++
		return stubRun(ctx, workload, cfg)
	}
	_, err := tea.RunExperiment(context.Background(), "fig8", tea.ExpOptions{
		Workloads:       []string{"mcf", "bfs", "mcf"},
		MaxInstructions: 10_000,
		Engine:          tea.NewEngine(1, tea.WithRunFunc(run)),
	})
	if err == nil || err.Error() != `tea: repeated workload "mcf"` {
		t.Errorf("err = %v, want tea: repeated workload \"mcf\"", err)
	}
	if cells != 0 {
		t.Errorf("%d cells ran, want none", cells)
	}
}

func TestRegisterExperimentRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, e tea.Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterExperiment did not panic", name)
			}
		}()
		tea.RegisterExperiment(e)
	}
	run := func(ctx context.Context, o tea.ExpOptions) (*tea.Report, error) { return nil, nil }
	mustPanic("duplicate", tea.Experiment{Name: "fig5", Title: "t", Description: "d", Run: run})
	mustPanic("no name", tea.Experiment{Run: run})
	mustPanic("no runner", tea.Experiment{Name: "unique-but-runnerless"})
}

// TestRunExperimentMatchesDirectCall pins the redesign's core promise: the
// registry path renders byte-identical output to the direct Fig* call it
// wraps.
func TestRunExperimentMatchesDirectCall(t *testing.T) {
	opts := func() tea.ExpOptions {
		return tea.ExpOptions{
			Workloads:       []string{"bfs", "mcf"},
			MaxInstructions: 10_000,
			Engine:          tea.NewEngine(1, tea.WithRunFunc(stubRun)),
		}
	}

	rows, err := tea.Fig5(opts())
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := tea.WriteSpeedups(&direct, tea.FormatCSV,
		"Fig 5: TEA thread speedup over baseline (paper geomean +10.1%)", rows); err != nil {
		t.Fatal(err)
	}

	rep, err := tea.RunExperiment(context.Background(), "fig5", opts())
	if err != nil {
		t.Fatal(err)
	}
	var viaRegistry bytes.Buffer
	if err := rep.Write(&viaRegistry, tea.FormatCSV); err != nil {
		t.Fatal(err)
	}
	if viaRegistry.String() != direct.String() {
		t.Errorf("registry output differs from direct call:\n--- registry ---\n%s\n--- direct ---\n%s",
			viaRegistry.String(), direct.String())
	}
}

// TestReportErrorRows pins the quarantine accounting the -partial exit code
// and the daemon's X-Tea-Error-Rows header rely on.
func TestReportErrorRows(t *testing.T) {
	boom := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		if workload == "mcf" && cfg.Mode != tea.ModeBaseline {
			panic("injected failure")
		}
		return stubRun(ctx, workload, cfg)
	}
	rep, err := tea.RunExperiment(context.Background(), "fig5", tea.ExpOptions{
		Workloads:       []string{"bfs", "mcf"},
		MaxInstructions: 10_000,
		Partial:         true,
		Engine:          tea.NewEngine(1, tea.WithRunFunc(boom)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ErrorRows(); got != 1 {
		t.Errorf("ErrorRows = %d, want 1", got)
	}

	clean, err := tea.RunExperiment(context.Background(), "fig5", tea.ExpOptions{
		Workloads:       []string{"bfs"},
		MaxInstructions: 10_000,
		Engine:          tea.NewEngine(1, tea.WithRunFunc(stubRun)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.ErrorRows(); got != 0 {
		t.Errorf("clean ErrorRows = %d, want 0", got)
	}

	// One experiment per report builder, with every mcf cell failing:
	// ErrorRows must equal the number of rows whose Err is set, before any
	// rendering and after each format is written first.
	allMcf := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		if workload == "mcf" {
			panic("injected failure")
		}
		return stubRun(ctx, workload, cfg)
	}
	formats := []tea.Format{tea.FormatText, tea.FormatJSON, tea.FormatCSV}
	for _, exp := range []string{"fig5", "fig6", "fig7", "fig8", "fig10", "table3", "sens-lead", "shootout"} {
		for _, first := range formats {
			t.Run(exp+"/"+first.String()+"-first", func(t *testing.T) {
				rep, err := tea.RunExperiment(context.Background(), exp, tea.ExpOptions{
					Workloads:       []string{"bfs", "mcf"},
					MaxInstructions: 10_000,
					Partial:         true,
					Engine:          tea.NewEngine(1, tea.WithRunFunc(allMcf)),
				})
				if err != nil {
					t.Fatal(err)
				}
				want := errRowsOf(rep.Rows())
				if want == 0 {
					t.Fatalf("no quarantined rows in %T", rep.Rows())
				}
				if got := rep.ErrorRows(); got != want {
					t.Errorf("ErrorRows before writing = %d, want %d", got, want)
				}
				for _, f := range append([]tea.Format{first}, formats...) {
					if err := rep.Write(io.Discard, f); err != nil {
						t.Fatal(err)
					}
					if got := rep.ErrorRows(); got != want {
						t.Errorf("ErrorRows after writing %v = %d, want %d", f, got, want)
					}
				}
			})
		}
	}
}

// errRowsOf counts the structured rows whose Err field is set.
func errRowsOf(rows any) int {
	v := reflect.ValueOf(rows)
	n := 0
	for i := 0; i < v.Len(); i++ {
		if v.Index(i).FieldByName("Err").String() != "" {
			n++
		}
	}
	return n
}
