package core

import (
	"io"
	"os"
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
)

// buildFig1Kernel emits the paper's Fig. 1 control-flow pattern: a loop over
// an array whose elements guard a chunk of work with a data-dependent (H2P)
// branch. bodyFiller controls how much non-chain work the main thread must
// fetch per iteration (the TEA thread skips it).
func buildFig1Kernel(b *asm.Builder, n int, data []uint64, bodyFiller int) {
	const base = 0x200000
	b.DataU64(base, data)
	b.Label("main")
	b.LiU(isa.R1, base)
	b.Li(isa.R2, int64(n))
	b.Li(isa.R3, 0)   // i
	b.Li(isa.R10, 0)  // sum
	b.Li(isa.R11, 50) // threshold
	b.Label("loop")
	b.ShlI(isa.R4, isa.R3, 3)
	b.Add(isa.R4, isa.R1, isa.R4)
	b.Ld(isa.R5, isa.R4, 0)
	b.Blt(isa.R5, isa.R11, "skip") // H2P: data-dependent
	// Guarded "work" the TEA thread never fetches.
	b.Add(isa.R10, isa.R10, isa.R5)
	for k := 0; k < bodyFiller; k++ {
		b.AddI(isa.R12, isa.R10, int64(k))
		b.Xor(isa.R13, isa.R12, isa.R10)
	}
	b.Label("skip")
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "loop")
	b.Halt()
}

func randData(n int, seed uint64) []uint64 {
	data := make([]uint64, n)
	rng := seed
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		data[i] = rng % 100
	}
	return data
}

func runKernel(t *testing.T, teaCfg *Config, build func(b *asm.Builder)) (*pipeline.Core, *TEA) {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	p := b.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	c := pipeline.New(cfg, p)
	var tea *TEA
	if teaCfg != nil {
		tea = New(*teaCfg, c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, tea
}

func TestTEAIntegrationFig1(t *testing.T) {
	n := 30000
	data := randData(n, 12345)
	teaCfg := DefaultConfig()
	c, tea := runKernel(t, &teaCfg, func(b *asm.Builder) {
		buildFig1Kernel(b, n, data, 8)
	})

	if tea.Stats.Activations == 0 {
		t.Fatal("TEA thread never activated")
	}
	if tea.Stats.WalksDone == 0 {
		t.Fatal("no Backward Dataflow Walks completed")
	}
	if tea.Stats.Precomputed == 0 {
		t.Fatal("no branches precomputed")
	}
	if tea.Stats.EarlyFlushes == 0 {
		t.Fatal("no early flushes issued")
	}
	acc := tea.Stats.Accuracy()
	if acc < 0.95 {
		t.Fatalf("precomputation accuracy = %.3f, want >= 0.95", acc)
	}
	cov := tea.Stats.Coverage()
	if cov < 0.30 {
		t.Fatalf("misprediction coverage = %.3f, want >= 0.30", cov)
	}
	t.Logf("accuracy=%.3f coverage=%.3f covered=%d late=%d incorrect=%d uncovered=%d saved/branch=%.1f",
		acc, cov, tea.Stats.CoveredMisp, tea.Stats.LateMisp,
		tea.Stats.IncorrectMisp, tea.Stats.UncoveredMisp, tea.Stats.AvgCyclesSaved())
	_ = c
}

func TestTEASpeedupOnH2PKernel(t *testing.T) {
	n := 30000
	data := randData(n, 999)
	build := func(b *asm.Builder) { buildFig1Kernel(b, n, data, 8) }

	base, _ := runKernel(t, nil, build)
	teaCfg := DefaultConfig()
	teaC, tea := runKernel(t, &teaCfg, build)

	baseC := base.Stats.Cycles
	withTEA := teaC.Stats.Cycles
	speedup := float64(baseC) / float64(withTEA)
	t.Logf("baseline=%d cycles, TEA=%d cycles, speedup=%.3f, coverage=%.2f, saved/br=%.1f",
		baseC, withTEA, speedup, tea.Stats.Coverage(), tea.Stats.AvgCyclesSaved())
	if speedup < 1.02 {
		t.Fatalf("TEA speedup = %.3f, want > 1.02", speedup)
	}
}

// TestTEATortureCorrectness attaches the TEA thread to random control-flow
// programs under full co-simulation: precomputation must never corrupt the
// committed architectural state no matter what it does.
func TestTEATortureCorrectness(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		teaCfg := DefaultConfig()
		// Stress the machinery: tiny fill buffer and caches, fast walks.
		teaCfg.FillBufSize = 128
		teaCfg.WalkCycles = 50
		teaCfg.MaskResetPeriod = 20_000
		teaCfg.H2PDecayPeriod = 5_000
		c, tea := runKernel(t, &teaCfg, func(b *asm.Builder) {
			buildTortureProgram(b, seed, 16, 30_000)
		})
		if c.Stats.Retired < 30_000 {
			t.Fatalf("seed %d: retired only %d", seed, c.Stats.Retired)
		}
		_ = tea
	}
}

// buildTortureProgram is a trimmed copy of the pipeline torture generator:
// random blocks, data-dependent branches, loads/stores, an LFSR driver.
func buildTortureProgram(b *asm.Builder, seed uint64, nBlocks, steps int) {
	rng := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	blkName := func(i int) string { return "b" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }
	b.Label("main")
	b.Li(isa.R20, int64(steps))
	b.LiU(isa.R21, 0x300000)
	b.Li(isa.R22, int64(seed*0x9E3779B9+1))
	for i := 1; i <= 15; i++ {
		b.Li(isa.Reg(i), int64(seed)*int64(i)+3)
	}
	b.Jmp(blkName(0))
	for blk := 0; blk < nBlocks; blk++ {
		b.Label(blkName(blk))
		b.ShlI(isa.R1, isa.R22, 13)
		b.Xor(isa.R22, isa.R22, isa.R1)
		b.ShrI(isa.R1, isa.R22, 7)
		b.Xor(isa.R22, isa.R22, isa.R1)
		for k, nOps := 0, 2+next(4); k < nOps; k++ {
			rd := isa.Reg(2 + next(13))
			r1 := isa.Reg(2 + next(13))
			r2 := isa.Reg(2 + next(13))
			switch next(6) {
			case 0:
				b.Add(rd, r1, r2)
			case 1:
				b.Sub(rd, r1, r2)
			case 2:
				b.Xor(rd, r1, r2)
			case 3:
				b.AndI(isa.R16, isa.R22, 0xFF8)
				b.Add(isa.R16, isa.R21, isa.R16)
				b.Ld(rd, isa.R16, 0)
			case 4:
				b.AndI(isa.R16, isa.R22, 0xFF8)
				b.Add(isa.R16, isa.R21, isa.R16)
				b.St(isa.R16, 0, r1)
			case 5:
				b.Slt(rd, r1, r2)
			}
		}
		b.AddI(isa.R20, isa.R20, -1)
		b.Beqz(isa.R20, "exit")
		t1, t2 := blkName(next(nBlocks)), blkName(next(nBlocks))
		b.AndI(isa.R17, isa.R22, 3)
		b.Beqz(isa.R17, t1)
		b.Jmp(t2)
	}
	b.Label("exit")
	b.Halt()
}

func TestTEAAblationsRun(t *testing.T) {
	n := 8000
	data := randData(n, 777)
	build := func(b *asm.Builder) { buildFig1Kernel(b, n, data, 8) }
	variants := map[string]func(*Config){
		"onlyloops": func(c *Config) { c.OnlyLoops = true },
		"nomasks":   func(c *Config) { c.NoMasks = true },
		"nomem":     func(c *Config) { c.NoMem = true },
		"noflush":   func(c *Config) { c.DisableEarlyFlush = true },
	}
	for name, mod := range variants {
		cfg := DefaultConfig()
		mod(&cfg)
		c, tea := runKernel(t, &cfg, build)
		if !c.Halted() {
			t.Fatalf("%s: did not halt", name)
		}
		if name == "noflush" && tea.Stats.EarlyFlushes != 0 {
			t.Fatalf("noflush issued %d early flushes", tea.Stats.EarlyFlushes)
		}
	}
}

// TestTEAPoolInvariant: after a full run the TEA register pool must be
// consistent — no leaked or double-freed registers once drained.
func TestTEAPoolInvariant(t *testing.T) {
	n := 10000
	data := randData(n, 31415)
	teaCfg := DefaultConfig()
	_, tea := runKernel(t, &teaCfg, func(b *asm.Builder) {
		buildFig1Kernel(b, n, data, 4)
	})
	seen := make(map[uint16]bool)
	for _, p := range tea.prFree {
		if seen[p] {
			t.Fatalf("register %d on the free list twice", p)
		}
		seen[p] = true
		if !tea.isTEAPR(p) {
			t.Fatalf("non-TEA register %d on TEA free list", p)
		}
	}
	allocated := 0
	for i := range tea.allocated {
		if tea.allocated[i] {
			allocated++
		}
	}
	if allocated+len(tea.prFree) != len(tea.allocated) {
		t.Fatalf("pool accounting broken: %d allocated + %d free != %d",
			allocated, len(tea.prFree), len(tea.allocated))
	}
}

// TestTEADedicatedTortureCorrectness runs the dedicated-engine configuration
// (§V-D) against random programs under co-simulation.
func TestTEADedicatedTortureCorrectness(t *testing.T) {
	b := asm.NewBuilder()
	buildTortureProgram(b, 11, 16, 30_000)
	p := b.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	cfg.Companion.Dedicated = true
	cfg.Companion.Ports = 16
	c := pipeline.New(cfg, p)
	New(DefaultConfig(), c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
}

// TestTEABackoffEngages: a workload that is hostile to precomputation
// (self-modifying decision data) must trip either the suppression table,
// the load-ordering escalation, or the windowed backoff — TEA must not
// blindly keep flushing wrongly.
func TestTEAAdaptiveDefensesEngage(t *testing.T) {
	n := 30000
	data := randData(n, 77)
	b := asm.NewBuilder()
	const base = 0x200000
	b.DataU64(base, data)
	b.Label("main")
	b.LiU(isa.R1, base)
	b.Li(isa.R2, int64(n))
	b.Li(isa.R3, 0)
	b.Li(isa.R11, 50)
	b.Label("loop")
	b.ShlI(isa.R4, isa.R3, 3)
	b.Add(isa.R4, isa.R1, isa.R4)
	b.Ld(isa.R5, isa.R4, 0)
	b.Blt(isa.R5, isa.R11, "skip") // H2P over data the loop mutates
	b.AddI(isa.R6, isa.R5, 31)
	b.AndI(isa.R6, isa.R6, 127)
	b.St(isa.R4, 0, isa.R6) // self-modifying decision data
	b.Label("skip")
	b.AddI(isa.R3, isa.R3, 1)
	b.Blt(isa.R3, isa.R2, "loop")
	b.Halt()
	p := b.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 30_000_000
	c := pipeline.New(cfg, p)
	tea := New(DefaultConfig(), c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	s := tea.Stats
	defended := s.BlockedFlushes > 0 || s.LoadWaitEnables > 0 || s.Backoffs > 0
	if s.PreWrong > 200 && !defended {
		t.Fatalf("wrongness %d with no adaptive defense engaged", s.PreWrong)
	}
}

// TestFirstInstructionFlushIsSilent runs, with TEA attached, a program whose
// first instruction is a mispredicted branch, so the first flush is at seq 0.
// The simulator reports through its stats and telemetry only: nothing may be
// written to stdout.
func TestFirstInstructionFlushIsSilent(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	var c *pipeline.Core
	func() {
		defer func() {
			os.Stdout = stdout
			w.Close()
		}()
		teaCfg := DefaultConfig()
		c, _ = runKernel(t, &teaCfg, func(b *asm.Builder) {
			b.Beqz(isa.R0, "done") // always taken; a cold predictor says not taken
			b.Nop()
			b.Label("done")
			b.Halt()
		})
	}()
	if got := <-out; len(got) != 0 {
		t.Errorf("simulation wrote %q to stdout", got)
	}
	if c.Stats.CondMispredicts == 0 {
		t.Fatal("the first branch was not mispredicted; the test no longer flushes at seq 0")
	}
}
