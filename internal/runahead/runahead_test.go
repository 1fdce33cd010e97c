package runahead

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

// buildLoopKernel emits a simple-control-flow loop with a data-dependent
// branch — the pattern Branch Runahead is strongest on (independent branch
// in a simple loop, as in the paper's Fig. 1).
func buildLoopKernel(b *asm.Builder, n int, data []uint64, filler int) {
	const base = 0x200000
	b.DataU64(base, data)
	b.Label("main")
	b.LiU(isa.R1, base)
	b.Li(isa.R2, int64(n))
	b.Li(isa.R3, 0)
	b.Li(isa.R10, 0)
	b.Li(isa.R11, 50)
	b.Label("loop")
	b.ShlI(isa.R4, isa.R3, 3)
	b.Add(isa.R4, isa.R1, isa.R4)
	b.Ld(isa.R5, isa.R4, 0)
	b.Blt(isa.R5, isa.R11, "skip")
	b.Add(isa.R10, isa.R10, isa.R5)
	for k := 0; k < filler; k++ {
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

func run(t *testing.T, attach bool, build func(b *asm.Builder)) (*pipeline.Core, *BR) {
	t.Helper()
	bld := asm.NewBuilder()
	build(bld)
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	c := pipeline.New(cfg, p)
	var br *BR
	if attach {
		br = New(*spec.DefaultRunahead(), c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, br
}

func TestBRCapturesChains(t *testing.T) {
	n := 20000
	data := randData(n, 42)
	_, br := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if br.Stats.ChainsCaptured == 0 {
		t.Fatal("no chains captured")
	}
	if br.Stats.Launches == 0 || br.Stats.EngineUops == 0 {
		t.Fatalf("engine idle: launches=%d uops=%d", br.Stats.Launches, br.Stats.EngineUops)
	}
	if br.Stats.Overrides == 0 {
		t.Fatal("no predictions overridden")
	}
	if acc := br.Stats.Accuracy(); acc < 0.90 {
		t.Fatalf("override accuracy = %.3f", acc)
	}
	t.Logf("captured=%d launches=%d overrides=%d acc=%.3f cov=%.3f disabled=%d",
		br.Stats.ChainsCaptured, br.Stats.Launches, br.Stats.Overrides,
		br.Stats.Accuracy(), br.Stats.Coverage(), br.Stats.ChainsDisabled)
}

func TestBRSpeedupOnSimpleLoop(t *testing.T) {
	n := 20000
	data := randData(n, 7)
	build := func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) }
	base, _ := run(t, false, build)
	brC, br := run(t, true, build)
	speedup := float64(base.Stats.Cycles) / float64(brC.Stats.Cycles)
	t.Logf("baseline=%d BR=%d speedup=%.3f cov=%.2f mpkiBase=%.1f mpkiBR=%.1f",
		base.Stats.Cycles, brC.Stats.Cycles, speedup, br.Stats.Coverage(),
		base.Stats.MPKI(), brC.Stats.MPKI())
	if speedup < 1.02 {
		t.Fatalf("BR speedup = %.3f on a simple independent loop, want > 1.02", speedup)
	}
	// Correct overrides remove mispredictions entirely: MPKI must drop.
	if brC.Stats.MPKI() >= base.Stats.MPKI() {
		t.Fatalf("MPKI did not improve: %.2f -> %.2f", base.Stats.MPKI(), brC.Stats.MPKI())
	}
}

func TestBRChainIndependenceDetection(t *testing.T) {
	n := 20000
	data := randData(n, 99)
	_, br := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	// The loop's H2P chain is loop-carried via r3 with invariant r1/r11:
	// it must be classified independent.
	found := false
	for _, ch := range br.chains {
		if ch.independent {
			found = true
		}
	}
	if !found {
		t.Fatal("independent chain not detected")
	}
}

// TestBRDegradesOnControlDependentChain: when the branch's dependence chain
// contains control-dependent instructions (the AndI executes only on taken
// iterations), Branch Runahead's straight-line trace is wrong on the other
// path — the paper's core argument for why prior work loses accuracy and
// coverage on complex control flows (§III-B, Fig. 10).
func TestBRDegradesOnControlDependentChain(t *testing.T) {
	n := 20000
	data := randData(n, 5)
	_, br := run(t, true, func(b *asm.Builder) {
		const base = 0x200000
		b.DataU64(base, data)
		b.Label("main")
		b.LiU(isa.R1, base)
		b.Li(isa.R2, int64(n))
		b.Li(isa.R3, 0)
		b.Li(isa.R11, 50)
		b.Li(isa.R15, 1)
		b.Label("loop")
		// The guarded work updates r15, and the branch depends on r15: the
		// chain's live-in is written by control-dependent non-chain code.
		b.ShlI(isa.R4, isa.R3, 3)
		b.Add(isa.R4, isa.R1, isa.R4)
		b.Ld(isa.R5, isa.R4, 0)
		b.Add(isa.R5, isa.R5, isa.R15)
		b.Blt(isa.R5, isa.R11, "skip")
		b.AndI(isa.R15, isa.R5, 7) // non-chain writer of r15 (sometimes)
		b.Label("skip")
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R2, "loop")
		b.Halt()
	})
	acc := br.Stats.Accuracy()
	cov := br.Stats.Coverage()
	t.Logf("control-dependent kernel: accuracy=%.3f coverage=%.3f", acc, cov)
	if acc > 0.995 {
		t.Fatalf("accuracy %.3f suspiciously perfect for a control-dependent chain", acc)
	}
	if cov > 0.60 {
		t.Fatalf("coverage %.3f too high: control dependence should hurt BR", cov)
	}
}

func TestBRCorrectnessUnderTorture(t *testing.T) {
	// BR overrides predictions speculatively; co-sim proves the committed
	// state stays exact regardless.
	n := 20000
	data := randData(n, 1234)
	c, _ := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 2) })
	if c.Stats.Retired == 0 {
		t.Fatal("nothing retired")
	}
}

func TestBRSpecLogRewindOnFlush(t *testing.T) {
	// Speculative instance counting must rewind exactly across flushes:
	// after a run with heavy misprediction, specIdx-retireIdx per branch
	// stays small (bounded by in-flight instances), never drifting.
	n := 20000
	data := randData(n, 321)
	_, br := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	for pc, spec := range br.specIdx {
		ret := br.retireIdx[pc]
		if spec < ret {
			t.Fatalf("pc %#x: specIdx %d < retireIdx %d (rewind overshoot)", pc, spec, ret)
		}
		if spec-ret > 4096 {
			t.Fatalf("pc %#x: specIdx drifted %d ahead of retireIdx", pc, spec-ret)
		}
	}
}

func TestBRQueuePruning(t *testing.T) {
	// Queued directions for retired instances must be pruned.
	n := 20000
	data := randData(n, 55)
	_, br := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	for pc, q := range br.queues {
		floor := br.retireIdx[pc]
		for _, e := range q {
			if e.tag <= floor {
				t.Fatalf("pc %#x: stale queue entry tag %d <= retireIdx %d", pc, e.tag, floor)
			}
		}
	}
}

func TestBRDisablesAfterForcedWrongness(t *testing.T) {
	// A branch whose chain reads memory that the main loop mutates in place
	// must eventually trip the disable logic or stay low-coverage; either
	// way the engine must not keep overriding with garbage.
	n := 20000
	data := randData(n, 777)
	_, br := run(t, true, func(b *asm.Builder) {
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
		b.Blt(isa.R5, isa.R11, "skip")
		// Mutate the array the chain loads from (self-modifying data).
		b.AddI(isa.R6, isa.R5, 13)
		b.St(isa.R4, 0, isa.R6)
		b.Label("skip")
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R2, "loop")
		b.Halt()
	})
	if br.Stats.Precomputed > 100 && br.Stats.Accuracy() < 0.80 &&
		br.Stats.ChainsDisabled == 0 {
		t.Fatalf("accuracy %.2f with %d overrides and no chain disabled",
			br.Stats.Accuracy(), br.Stats.Precomputed)
	}
}
