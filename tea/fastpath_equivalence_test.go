package tea_test

import (
	"bytes"
	"fmt"
	"testing"

	"teasim/tea"
	"teasim/tea/spec"
)

// TestFastPathEquivalence is the fast-path bit-identity contract (DESIGN.md
// §12, §14): the decoded-block cache, the bitset scheduler, the split
// main/companion ready lists, folded-history rewind and idle-cycle skipping
// are pure simulator-speed optimizations. The first four have one
// implementation each, with the golden corpus as their reference, so every
// cell here runs with all the checking the simulator still offers: idle
// skipping off, and the paranoia checker armed, which re-derives the
// scheduler's counters, bitmaps and ready lists, the completion ring and the
// frontend streams from ground truth every cycle and panics at the first
// disagreement. The run must still reproduce the cell's corpus line byte for
// byte: every Result field and the trace event digest. Every preset runs on
// a representative workload pair, and the full workload suite runs in the
// two headline modes.
func TestFastPathEquivalence(t *testing.T) {
	want := readCorpus(t)
	for _, preset := range spec.Presets() {
		mode := tea.Mode(preset)
		for _, name := range []string{"mcf", "bfs"} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, want, name, mode)
			})
		}
	}
	for _, name := range tea.Workloads() {
		for _, mode := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				checkFastPathEquivalence(t, want, name, mode)
			})
		}
	}
}

// checkFastPathEquivalence runs one cell in the fully checked setting and
// compares its line with the corpus.
func checkFastPathEquivalence(t *testing.T, want map[string][]byte, name string, mode tea.Mode) {
	t.Helper()
	m := corpusMachine{preset: mode.String()}
	cfg := m.config()
	cfg.DisableIdleSkip = true
	cfg.Paranoia = true // an invariant violation panics
	got, err := renderCorpusLine(name, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := name + "/" + m.label()
	exp, ok := want[key]
	if !ok {
		t.Fatalf("cell %s missing from %s", key, corpusPath)
	}
	if !bytes.Equal(got, exp) {
		t.Errorf("checked run moved the cell: %s", corpusDiff(got, exp))
	}
}
