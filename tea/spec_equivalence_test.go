package tea_test

// Spec-equivalence contract (DESIGN.md §10): the declarative machine tree is
// a pure re-expression of the old hardcoded mode switches. Running a mode
// and running its preset spec must be bit-identical, and a custom,
// non-preset spec must run end to end. The sensitivity half of the contract
// (TestSensitivityPatchEquivalence) calls the sweep's row builder, so it
// lives with the internal tests in experiments_test.go.

import (
	"fmt"
	"reflect"
	"testing"

	"teasim/tea"
	"teasim/tea/spec"
)

// TestSpecModeEquivalence runs the whole suite on every preset twice — once
// by name, once through the explicit preset spec — and requires
// bit-identical Results (the Mode label is normalized: a custom spec is
// labeled by the companion kind it attaches, not by the preset's name).
func TestSpecModeEquivalence(t *testing.T) {
	budget := uint64(20_000)
	for _, name := range tea.Workloads() {
		for _, p := range spec.Presets() {
			mode := tea.Mode(p)
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				byMode, err := tea.Run(name, tea.Config{Mode: mode, MaxInstructions: budget})
				if err != nil {
					t.Fatalf("mode run: %v", err)
				}
				preset, err := spec.Preset(p)
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
