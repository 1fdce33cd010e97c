package tea_test

import (
	"fmt"
	"reflect"
	"testing"

	"teasim/tea"
)

// fastPathToggles enumerates the simulator-speed fast paths covered by the
// bit-identity contract, as functions that disable one path on a config.
// Every new bit-identical optimization lever must be added here.
var fastPathToggles = []struct {
	name    string
	disable func(*tea.Config)
}{
	{"block_cache", func(c *tea.Config) { c.DisableBlockCache = true }},
	{"bitset_sched", func(c *tea.Config) { c.DisableBitsetSched = true }},
	{"split_ready", func(c *tea.Config) { c.DisableSplitReady = true }},
	{"hist_rewind", func(c *tea.Config) { c.DisableHistRewind = true }},
}

// TestFastPathEquivalence is the fast-path bit-identity contract (DESIGN.md
// §12, §14): the decoded-block cache, the bitset scheduler, the split
// main/companion ready lists, and invertible folded-history recovery are all
// pure simulator-speed optimizations, so every mode must produce
// bit-identical results — every counter, rate, and the final cycle count —
// with the fast paths enabled (the default) and disabled (the reference
// paths). All six modes run on a representative workload pair, and the full
// workload suite runs in the two headline modes.
func TestFastPathEquivalence(t *testing.T) {
	budget := uint64(20_000)
	for _, mode := range tea.Modes() {
		for _, name := range []string{"mcf", "bfs"} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, name, tea.Config{
					Mode:            mode,
					MaxInstructions: budget,
				})
			})
		}
	}
	for _, name := range tea.Workloads() {
		for _, mode := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, name, tea.Config{
					Mode:            mode,
					MaxInstructions: budget,
				})
			})
		}
	}
}

func checkFastPathEquivalence(t *testing.T, name string, cfg tea.Config) {
	t.Helper()
	on, err := tea.Run(name, cfg)
	if err != nil {
		t.Fatalf("fast paths on: %v", err)
	}
	check := func(label string, c tea.Config) {
		got, err := tea.Run(name, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// DeepEqual, not field picking: any future Result field must hold
		// the invariant too.
		if !reflect.DeepEqual(on, got) {
			t.Errorf("results diverge (%s):\n on: %+v\ngot: %+v", label, on, got)
		}
	}
	// All reference paths at once.
	all := cfg
	for _, tog := range fastPathToggles {
		tog.disable(&all)
	}
	check("all fast paths off", all)
	// The paths are also independent: each fast path disabled alone must
	// match too.
	for _, tog := range fastPathToggles {
		one := cfg
		tog.disable(&one)
		check(fmt.Sprintf("only %s disabled", tog.name), one)
	}
}
