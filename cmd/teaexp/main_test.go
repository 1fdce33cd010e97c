package main

import (
	"bytes"
	"strings"
	"testing"

	"teasim/tea/spec"
)

// paperTables is `teaexp -exp tables` for the baseline and tea presets.
const paperTables = `Table I (baseline core, as modelled):
  3.2GHz, 8-wide fetch/decode/rename/issue, 12-cycle frontend
  512-entry ROB, 352-entry RS, 16-wide retire
  12 execution ports (6 ALU, 2 LD, 2 LD/ST, 2 FP), 400 physical registers
  256-entry load queue, 192-entry store queue
  64KB-class TAGE-SC-L (12 tables, loop predictor, statistical corrector)
  history-based indirect predictor, RAS, 4k-entry BTB, 128-entry fetch queue
  L1I 32KB/8w 4cyc, L1D 48KB/12w 4cyc, LLC 1MB/16w 18cyc, 64B lines
  DDR4-2400R: 2 channels, 4 bank groups x 4 banks, tRP-tCL-tRCD 16-16-16

Table II (TEA thread structures, as modelled):
  H2P table: 256 entries, 8-way, 3-bit counters, decay every 50k instrs
  Fill Buffer: 512 uops; Backward Dataflow Walk: ~500 cycles
  Source List: register bit-vector + 16 memory addresses
  Block Cache: 512 entries (+256 empty-block tags), 32-bit masks,
    mask reset every 500k instrs, 8 uops/cycle fetch
  TEA frontend: 9-cycle latency, shadow RAT, shadow fetch queue
  Backend partition: 192 RS + 192 physical registers while active
  Store data cache: 16 half-lines (32B); late limit: 4
`

// tables renders Tables I and II from the baseline and tea presets, each
// edited by its patches.
func tables(t *testing.T, corePatch, teaPatch string) string {
	t.Helper()
	core, err := spec.Preset("baseline")
	if err != nil {
		t.Fatal(err)
	}
	thread, err := spec.Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	if corePatch != "" {
		if err := core.Set(corePatch); err != nil {
			t.Fatal(err)
		}
	}
	if teaPatch != "" {
		if err := thread.Set(teaPatch); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := writeConfigTables(&buf, core, thread.Companion.TEA); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestConfigTablesFromPresets checks that Tables I and II are the presets'
// values: the presets print the paper's tables, and an edited machine prints
// its edit.
func TestConfigTablesFromPresets(t *testing.T) {
	if got := tables(t, "", ""); got != paperTables {
		t.Errorf("preset tables:\n%s\nwant:\n%s", got, paperTables)
	}
	for _, tc := range []struct{ core, tea, want string }{
		{core: "backend.rob_size=256", want: "256-entry ROB"},
		{core: "memory.llc_size=2097152", want: "LLC 2MB/16w 18cyc"},
		{core: "predictor.btb_entries=2048", want: "2k-entry BTB"},
		{tea: "companion.tea.fill_buf_size=1024", want: "Fill Buffer: 1024 uops"},
		{tea: "companion.tea.front_latency=3", want: "TEA frontend: 5-cycle latency"},
	} {
		if got := tables(t, tc.core, tc.tea); !strings.Contains(got, tc.want) {
			t.Errorf("patched with %q%q: no %q in\n%s", tc.core, tc.tea, tc.want, got)
		}
	}
}
