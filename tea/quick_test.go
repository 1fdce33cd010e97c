package tea_test

import (
	"reflect"
	"strings"
	"testing"

	"teasim/tea"
)

// The simulator has one memory model, the full cache-hierarchy walk. These
// tests pin that a spec or patch naming a field of the statistical memory
// tier that once sat beside it (memory.model and the quick_* parameters)
// fails loudly instead of running the exact model under a name that
// promises something else.

// TestQuickTierRejected asserts that every removed memory field is an
// unknown-field error when the spec resolves.
func TestQuickTierRejected(t *testing.T) {
	for _, patch := range []string{
		"memory.model=quick",
		"memory.quick_l1_hit_pct=80",
		"memory.quick_llc_hit_pct=60",
		"memory.quick_mem_lat=180",
	} {
		_, err := tea.Config{Mode: tea.ModeBaseline, Set: []string{patch}}.ResolvedSpec()
		field, _, _ := strings.Cut(strings.TrimPrefix(patch, "memory."), "=")
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`" under "memory"`) {
			t.Errorf("%s: err = %v, want an unknown-field error", patch, err)
		}
	}
	if _, err := (tea.Config{Mode: tea.ModeBaseline}).ResolvedSpec(); err != nil {
		t.Fatalf("unpatched baseline does not resolve: %v", err)
	}
}

// TestQuickTierRuns asserts that a run selecting the removed tier fails,
// for the baseline and for TEA, rather than simulating the exact model.
func TestQuickTierRuns(t *testing.T) {
	for _, mode := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA} {
		res, err := tea.Run("mcf", tea.Config{
			Mode:            mode,
			MaxInstructions: 20_000,
			Set:             []string{"memory.model=quick"},
		})
		if err == nil {
			t.Errorf("%s: memory.model=quick ran (%d instrs in %d cycles), want an error",
				mode, res.Instructions, res.Cycles)
		} else if !strings.Contains(err.Error(), `unknown field "model"`) {
			t.Errorf("%s: err = %v, want an unknown-field error", mode, err)
		}
	}
}

// TestQuickTierDeterministic pins reproducibility of the one memory model:
// two identical runs are bit-identical.
func TestQuickTierDeterministic(t *testing.T) {
	cfg := tea.Config{Mode: tea.ModeTEA, MaxInstructions: 20_000}
	a, err := tea.Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tea.Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs diverge:\n a: %+v\n b: %+v", a, b)
	}
}
