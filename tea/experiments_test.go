package tea

// Internal experiment tests: these call the row builders the catalog
// entries wrap, for what the catalog does not expose (a custom sweep's
// values) and to check each entry against its builders.

import (
	"bytes"
	"context"
	"testing"

	"teasim/tea/spec"
)

// TestRunExperimentMatchesDirectCall: each kind of catalog entry renders
// the same bytes as its report builder applied to its row builder's rows.
func TestRunExperimentMatchesDirectCall(t *testing.T) {
	stub := func() *Engine {
		e := NewEngine(1)
		e.runFn = func(_ context.Context, w string, c Config) (Result, error) { return stubResult(w, c), nil }
		return e
	}
	direct := map[string]func(ctx context.Context, o ExpOptions, title string) (report, error){
		"fig5": func(ctx context.Context, o ExpOptions, title string) (report, error) {
			rows, err := runSpeedups(ctx, o, ModeTEA, nil)
			return speedupsReport(title, rows), err
		},
		"fig6": func(ctx context.Context, o ExpOptions, _ string) (report, error) {
			rows, err := runAll(ctx, o, o.cfg(ModeBaseline))
			return fig6Report(rows), err
		},
		"fig8": func(ctx context.Context, o ExpOptions, _ string) (report, error) {
			rows, err := fig8(ctx, o)
			return fig8Report(rows), err
		},
		"sens-lead": func(ctx context.Context, o ExpOptions, _ string) (report, error) {
			rows, err := sensitivity(ctx, SensLead, SensDefaults(SensLead), o)
			return sensitivityReport(SensLead, rows), err
		},
		"shootout": func(ctx context.Context, o ExpOptions, _ string) (report, error) {
			rows, err := shootout(ctx, o)
			return shootoutReport(rows), err
		},
	}
	for name, build := range direct {
		t.Run(name, func(t *testing.T) {
			opts := ExpOptions{Workloads: []string{"bfs", "mcf"}, MaxInstructions: 10_000}
			e, _ := LookupExperiment(name)
			opts.Engine = stub()
			want, err := build(context.Background(), opts.fill(), e.Title)
			if err != nil {
				t.Fatal(err)
			}
			opts.Engine = stub()
			rep, err := RunExperiment(context.Background(), name, opts)
			if err != nil {
				t.Fatal(err)
			}
			var direct, viaRegistry bytes.Buffer
			if err := want.write(&direct, FormatCSV); err != nil {
				t.Fatal(err)
			}
			if err := rep.Write(&viaRegistry, FormatCSV); err != nil {
				t.Fatal(err)
			}
			if viaRegistry.String() != direct.String() {
				t.Errorf("registry output differs from its builders:\n--- registry ---\n%s\n--- builders ---\n%s",
					viaRegistry.String(), direct.String())
			}
		})
	}
}

func TestSensitivitySweep(t *testing.T) {
	rows, err := sensitivity(context.Background(), SensLead, []int{1, 4},
		ExpOptions{MaxInstructions: 60_000, Scale: 1, Workloads: []string{"cc"}}.fill())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup %v", r.Speedup)
		}
	}
}

func TestSensitivityUnknownParam(t *testing.T) {
	_, err := sensitivity(context.Background(), SensParam("bogus"), []int{1},
		ExpOptions{MaxInstructions: 10_000, Workloads: []string{"cc"}}.fill())
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestSensitivityPatchEquivalence asserts the patch-based sensitivity sweep
// reproduces the Fill-Buffer and Block-Cache curves of the TEA preset spec
// edited by hand exactly, and that the engine's fingerprint memo simulates
// each workload's baseline exactly once across both sweeps (DESIGN.md §10).
func TestSensitivityPatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation sweep; skipped in -short mode")
	}
	const budget = 20_000
	workloads := []string{"bfs", "mcf"}
	engine := NewEngine(4)
	opts := ExpOptions{MaxInstructions: budget, Scale: 1, Workloads: workloads, Engine: engine}

	sweeps := []struct {
		param  SensParam
		values []int
		edit   func(*spec.TEA, int)
	}{
		{SensFillBuffer, []int{256, 512, 1024}, func(t *spec.TEA, v int) { t.FillBufSize = v }},
		{SensBlockCache, []int{256, 512, 1024}, func(t *spec.TEA, v int) { t.SetBlockCacheEntries(v) }},
	}
	for _, sw := range sweeps {
		rows, err := sensitivity(context.Background(), sw.param, sw.values, opts)
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.param, err)
		}
		i := 0
		for _, name := range workloads {
			base, err := Run(name, Config{Mode: ModeBaseline, MaxInstructions: budget, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sw.values {
				machine, err := spec.Preset("tea")
				if err != nil {
					t.Fatal(err)
				}
				sw.edit(machine.Companion.TEA, v)
				res, err := Run(name, Config{Spec: &machine, MaxInstructions: budget, Scale: 1})
				if err != nil {
					t.Fatal(err)
				}
				row := rows[i]
				i++
				wantSpeedup := float64(base.Cycles) / float64(res.Cycles)
				if row.Workload != name || row.Value != v ||
					row.Speedup != wantSpeedup || row.Coverage != res.Coverage || row.Accuracy != res.Accuracy {
					t.Errorf("%s %s@%d: patch row %+v diverges from hand-edited spec run (speedup %v, cov %v, acc %v)",
						sw.param, name, v, row, wantSpeedup, res.Coverage, res.Accuracy)
				}
			}
		}
	}

	// Both sweeps shared one engine: per workload, the baseline must have
	// simulated once, and the default machine point — fill buffer 512 and
	// block cache 512 both patch fields back to their preset values — once.
	stats := engine.MemoStats()
	wantEntries := len(workloads) * (1 /*baseline*/ + 5 /*distinct TEA points*/)
	if stats.Entries != wantEntries {
		t.Errorf("memo holds %d entries, want %d (baseline and default TEA cells shared across sweeps)",
			stats.Entries, wantEntries)
	}
	// 2 sweeps × (1 baseline + 3 points) × 2 workloads = 16 jobs over 12
	// distinct machine points: 4 hits.
	if wantHits := 2 * len(workloads); stats.Hits != wantHits {
		t.Errorf("memo served %d hits, want %d", stats.Hits, wantHits)
	}
}
