package ldbp

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

// buildLoopKernel emits the strided-load + data-dependent-branch loop LDBP
// targets: the branch hangs directly off a unit-stride trigger load.
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

// testConfig extends the lookahead past the in-flight iteration depth of
// the unit kernel so queued tags land on instances not yet fetched.
func testConfig() spec.LDBP {
	cfg := *spec.DefaultLDBP()
	cfg.Lookahead = 24
	cfg.QueueDepth = 32
	return cfg
}

func run(t *testing.T, attach bool, build func(b *asm.Builder)) (*pipeline.Core, *L) {
	t.Helper()
	bld := asm.NewBuilder()
	build(bld)
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	c := pipeline.New(cfg, p)
	var l *L
	if attach {
		l = New(testConfig(), c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, l
}

func TestLDBPCapturesLoadBranchChain(t *testing.T) {
	n := 20000
	data := randData(n, 42)
	_, l := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if l.Stats.ChainsCaptured == 0 {
		t.Fatal("no load-branch chain captured")
	}
	if l.Stats.Precomputations == 0 {
		t.Fatal("stride never confirmed: no precomputations")
	}
	if l.Stats.Overrides == 0 {
		t.Fatal("no predictions overridden")
	}
	// Predictions come from committed memory on an immutable array: the
	// direction is exact whenever the tag matches.
	if acc := l.Stats.Accuracy(); acc < 0.95 {
		t.Fatalf("override accuracy = %.3f, want >= 0.95", acc)
	}
	t.Logf("chains=%d precomps=%d chainUops=%d overrides=%d acc=%.3f cov=%.3f",
		l.Stats.ChainsCaptured, l.Stats.Precomputations, l.Stats.ChainUops,
		l.Stats.Overrides, l.Stats.Accuracy(), l.Stats.Coverage())
}

func TestLDBPSpeedupOnStridedLoop(t *testing.T) {
	n := 20000
	data := randData(n, 7)
	build := func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) }
	base, _ := run(t, false, build)
	lC, l := run(t, true, build)
	speedup := float64(base.Stats.Cycles) / float64(lC.Stats.Cycles)
	t.Logf("baseline=%d ldbp=%d speedup=%.3f cov=%.3f mpkiBase=%.2f mpkiL=%.2f",
		base.Stats.Cycles, lC.Stats.Cycles, speedup, l.Stats.Coverage(),
		base.Stats.MPKI(), lC.Stats.MPKI())
	if speedup < 1.02 {
		t.Fatalf("LDBP speedup = %.3f on a strided independent loop, want > 1.02", speedup)
	}
	if lC.Stats.MPKI() >= base.Stats.MPKI() {
		t.Fatalf("MPKI did not improve: %.2f -> %.2f", base.Stats.MPKI(), lC.Stats.MPKI())
	}
}

func TestLDBPCapturesALUChain(t *testing.T) {
	// An ALU op between the load and the branch must be captured into the
	// chain and emulated at precompute time.
	n := 20000
	data := randData(n, 99)
	_, l := run(t, true, func(b *asm.Builder) {
		const base = 0x200000
		b.DataU64(base, data)
		b.Label("main")
		b.LiU(isa.R1, base)
		b.Li(isa.R2, int64(n))
		b.Li(isa.R3, 0)
		b.Li(isa.R11, 57)
		b.Label("loop")
		b.ShlI(isa.R4, isa.R3, 3)
		b.Add(isa.R4, isa.R1, isa.R4)
		b.Ld(isa.R5, isa.R4, 0)
		b.AddI(isa.R6, isa.R5, 7)
		b.Blt(isa.R6, isa.R11, "skip")
		b.AddI(isa.R10, isa.R10, 1)
		b.Label("skip")
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R2, "loop")
		b.Halt()
	})
	if l.Stats.ChainsCaptured == 0 {
		t.Fatal("no chain captured through the ALU op")
	}
	found := false
	for _, ch := range l.chains {
		if len(ch.uops) == 2 { // AddI + branch
			found = true
		}
	}
	if !found {
		t.Fatal("chain does not include the intermediate ALU uop")
	}
	if acc := l.Stats.Accuracy(); l.Stats.Precomputed > 100 && acc < 0.95 {
		t.Fatalf("override accuracy = %.3f through ALU chain", acc)
	}
}

func TestLDBPDisablesOnMutatedData(t *testing.T) {
	// The main loop stores to the array the chain reads: precomputed values
	// go stale and the wrong-streak disable must fire (or the engine must
	// stay out of the way).
	n := 20000
	data := randData(n, 777)
	_, l := run(t, true, func(b *asm.Builder) {
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
		// Mutate several elements ahead so stale reads precompute wrong.
		b.AddI(isa.R6, isa.R5, 13)
		b.St(isa.R4, 64, isa.R6)
		b.Label("skip")
		b.AddI(isa.R3, isa.R3, 1)
		b.Blt(isa.R3, isa.R2, "loop")
		b.Halt()
	})
	if l.Stats.Precomputed > 200 && l.Stats.Accuracy() < 0.75 &&
		l.Stats.ChainsDisabled == 0 {
		t.Fatalf("accuracy %.2f with %d overrides and no chain disabled",
			l.Stats.Accuracy(), l.Stats.Precomputed)
	}
}

func TestLDBPSpecLogRewindOnFlush(t *testing.T) {
	n := 20000
	data := randData(n, 321)
	_, l := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	for pc, spec := range l.specIdx {
		ret := l.retireIdx[pc]
		if spec < ret {
			t.Fatalf("pc %#x: specIdx %d < retireIdx %d (rewind overshoot)", pc, spec, ret)
		}
		if spec-ret > 4096 {
			t.Fatalf("pc %#x: specIdx drifted %d ahead of retireIdx", pc, spec-ret)
		}
	}
}

func TestLDBPQueuePruning(t *testing.T) {
	n := 20000
	data := randData(n, 55)
	_, l := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	for pc, q := range l.queues {
		floor := l.retireIdx[pc]
		for _, e := range q {
			if e.tag <= floor {
				t.Fatalf("pc %#x: stale queue entry tag %d <= retireIdx %d", pc, e.tag, floor)
			}
		}
	}
}
