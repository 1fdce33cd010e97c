package tea_test

import (
	"context"
	"testing"

	"teasim/tea"
)

func TestRunBaselineTiny(t *testing.T) {
	res, err := tea.Run("bfs", tea.Config{Mode: tea.ModeBaseline, Scale: 0, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
}

func TestRunTEAProducesCoverage(t *testing.T) {
	res, err := tea.Run("bfs", tea.Config{Mode: tea.ModeTEA, Scale: 1,
		MaxInstructions: 150_000, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered == 0 {
		t.Fatal("TEA covered no mispredictions")
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy = %.3f", res.Accuracy)
	}
	if res.EarlyFlushes == 0 {
		t.Fatal("no early flushes")
	}
}

func TestRunAllModesOneWorkload(t *testing.T) {
	for _, m := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA,
		tea.ModeTEADedicated, tea.ModeBranchRunahead} {
		res, err := tea.Run("sssp", tea.Config{Mode: m, Scale: 0, CoSim: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Mode != m || res.Cycles == 0 {
			t.Fatalf("%v: bad result %+v", m, res)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := tea.Run("nope", tea.Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := tea.Workloads()
	if len(names) != 17 {
		t.Fatalf("got %d workloads", len(names))
	}
	simple := 0
	for _, n := range names {
		if tea.SimpleFlow(n) {
			simple++
		}
	}
	if simple != 7 {
		t.Fatalf("simple-flow count = %d, want 7 (six GAP kernels + xz)", simple)
	}
}

func TestGeomean(t *testing.T) {
	if g := tea.Geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v", g)
	}
	if g := tea.Geomean(nil); g != 1 {
		t.Fatalf("geomean(nil) = %v", g)
	}
}

// TestSpeedupHelper: a speedup experiment's row is the cycles ratio of the
// workload's baseline run over its run under the experiment's mode. The two
// reference runs co-simulate (CoSim checks, it does not change the machine),
// and cc also runs to completion at Scale 0 co-simulated in both modes: no
// other test co-simulates cc under baseline or TEA.
func TestSpeedupHelper(t *testing.T) {
	rep, err := tea.RunExperiment(context.Background(), "fig5",
		tea.ExpOptions{Workloads: []string{"cc"}, MaxInstructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows().([]tea.SpeedupRow)[0]
	base, err := tea.Run("cc", tea.Config{Mode: tea.ModeBaseline, MaxInstructions: 30_000, Scale: 1, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	with, err := tea.Run("cc", tea.Config{Mode: tea.ModeTEA, MaxInstructions: 30_000, Scale: 1, CoSim: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(base.Cycles) / float64(with.Cycles); row.Speedup != want || row.Speedup <= 0 {
		t.Fatalf("registry speedup %v, want %d/%d = %v", row.Speedup, base.Cycles, with.Cycles, want)
	}
	for _, mode := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA} {
		r, err := tea.Run("cc", tea.Config{Mode: mode, Scale: 0, CoSim: true})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Cycles == 0 || r.Instructions == 0 {
			t.Fatalf("%v: cycles=%d instructions=%d", mode, r.Cycles, r.Instructions)
		}
	}
}

func TestAblationConfigsRun(t *testing.T) {
	for _, fc := range tea.Fig10Configs() {
		cfg := fc.Cfg(tea.Config{Mode: fc.Mode, Scale: 0, CoSim: true})
		if _, err := tea.Run("tc", cfg); err != nil {
			t.Fatalf("%s: %v", fc.Name, err)
		}
	}
}

func TestStructureOverridesApply(t *testing.T) {
	// A Block Cache too small for the workload's code footprint must change
	// behaviour (coverage drops or cycles change). gcc has the largest
	// footprint of the suite (interpreter dispatch + eight handlers).
	big, err := tea.Run("gcc", tea.Config{Mode: tea.ModeTEA, Scale: 1,
		MaxInstructions: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	small, err := tea.Run("gcc", tea.Config{Mode: tea.ModeTEA, Scale: 1,
		MaxInstructions: 150_000, Set: []string{"companion.tea.block_cache_sets=1"}}) // 8 entries
	if err != nil {
		t.Fatal(err)
	}
	if small.Cycles == big.Cycles && small.Covered == big.Covered {
		t.Fatal("block cache size had no effect at all")
	}
	if small.Coverage > big.Coverage+0.05 {
		t.Fatalf("tiny block cache should not increase coverage: %.2f vs %.2f",
			small.Coverage, big.Coverage)
	}
}

func TestModeString(t *testing.T) {
	names := map[tea.Mode]string{
		tea.ModeBaseline:       "baseline",
		tea.ModeTEA:            "tea",
		tea.ModeTEADedicated:   "tea-dedicated",
		tea.ModeBranchRunahead: "runahead",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestNewModesRun(t *testing.T) {
	for _, m := range []tea.Mode{tea.ModeTEABigEngine, tea.ModeWide16} {
		res, err := tea.Run("cc", tea.Config{Mode: m, Scale: 0, CoSim: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%v: empty result", m)
		}
	}
	// Wide16 must not attach a precomputation engine.
	res, _ := tea.Run("cc", tea.Config{Mode: tea.ModeWide16, Scale: 0})
	if res.EarlyFlushes != 0 || res.Covered != 0 {
		t.Fatal("wide16 should have no precomputation activity")
	}
}
