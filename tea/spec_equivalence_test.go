package tea_test

// Spec-equivalence contract (DESIGN.md §10): the declarative machine tree is
// a pure re-expression of the old hardcoded mode switches. Running a mode
// and running its preset spec must be bit-identical; a sensitivity sweep
// expressed as spec patches must reproduce the curves of the preset spec
// edited by hand exactly; and a custom, non-preset spec must run end to end.

import (
	"fmt"
	"reflect"
	"testing"

	"teasim/tea"
	"teasim/tea/spec"
)

// TestSpecModeEquivalence runs the whole suite in every mode twice — once
// through the Mode preset, once through the explicit preset spec — and
// requires bit-identical Results (the Mode label is normalized: a custom
// spec reports the scheme it attaches, not the preset's marketing name).
func TestSpecModeEquivalence(t *testing.T) {
	budget := uint64(20_000)
	for _, name := range tea.Workloads() {
		for _, mode := range tea.Modes() {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				byMode, err := tea.Run(name, tea.Config{Mode: mode, MaxInstructions: budget})
				if err != nil {
					t.Fatalf("mode run: %v", err)
				}
				preset, err := mode.Preset()
				if err != nil {
					t.Fatal(err)
				}
				bySpec, err := tea.Run(name, tea.Config{Spec: &preset, MaxInstructions: budget})
				if err != nil {
					t.Fatalf("spec run: %v", err)
				}
				bySpec.Mode = byMode.Mode
				if !reflect.DeepEqual(byMode, bySpec) {
					t.Errorf("preset spec diverges from its mode:\nmode: %+v\nspec: %+v", byMode, bySpec)
				}
			})
		}
	}
}

// TestSensitivityPatchEquivalence asserts the patch-based Sensitivity sweep
// reproduces the Fill-Buffer and Block-Cache curves of the TEA preset spec
// edited by hand exactly, and that the engine's fingerprint memo simulates
// each workload's baseline exactly once across both sweeps.
func TestSensitivityPatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation sweep; skipped in -short mode")
	}
	const budget = 20_000
	workloads := []string{"bfs", "mcf"}
	engine := tea.NewEngine(4)
	opts := tea.ExpOptions{MaxInstructions: budget, Scale: 1, Workloads: workloads, Engine: engine}

	sweeps := []struct {
		param  tea.SensParam
		values []int
		edit   func(*spec.TEA, int)
	}{
		{tea.SensFillBuffer, []int{256, 512, 1024}, func(t *spec.TEA, v int) { t.FillBufSize = v }},
		{tea.SensBlockCache, []int{256, 512, 1024}, func(t *spec.TEA, v int) { t.SetBlockCacheEntries(v) }},
	}
	for _, sw := range sweeps {
		rows, err := tea.Sensitivity(sw.param, sw.values, opts)
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.param, err)
		}
		i := 0
		for _, name := range workloads {
			base, err := tea.Run(name, tea.Config{Mode: tea.ModeBaseline, MaxInstructions: budget, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sw.values {
				machine, err := spec.Preset("tea")
				if err != nil {
					t.Fatal(err)
				}
				sw.edit(machine.Companion.TEA, v)
				res, err := tea.Run(name, tea.Config{Spec: &machine, MaxInstructions: budget, Scale: 1})
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

// TestCustomSpecEndToEnd runs a machine point no preset describes — a
// 1024-entry Block Cache with a 4-deep shadow fetch queue — from an explicit
// spec, end to end.
func TestCustomSpecEndToEnd(t *testing.T) {
	custom, err := spec.Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	custom.Companion.TEA.SetBlockCacheEntries(1024)
	custom.Companion.TEA.MaxLeadBlocks = 4
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err := tea.Run("bfs", tea.Config{Spec: &custom, MaxInstructions: 20_000, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("custom machine simulated nothing: %+v", res)
	}
	if res.Mode != tea.ModeTEA {
		t.Errorf("custom TEA spec labeled %s, want %s", res.Mode, tea.ModeTEA)
	}
	if want := custom.FingerprintString(); res.SpecHash != want {
		t.Errorf("result spec hash %s, want %s", res.SpecHash, want)
	}

	// The custom point is a different machine from the preset.
	preset, err := tea.Run("bfs", tea.Config{Mode: tea.ModeTEA, MaxInstructions: 20_000, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if preset.SpecHash == res.SpecHash {
		t.Error("custom spec fingerprints identically to the preset")
	}
}
