package bullseye

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
)

// buildLoopKernel emits a loop with a data-dependent branch (same shape as
// the runahead kernel): Bullseye's target when the outcome stream repeats.
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

// periodicData repeats a pseudo-random block of the given period: beyond a
// weak global predictor's reach but exactly what a large dedicated
// pattern table memorizes from local history.
func periodicData(n, period int, seed uint64) []uint64 {
	pat := make([]uint64, period)
	rng := seed
	for i := range pat {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pat[i] = rng % 100
	}
	data := make([]uint64, n)
	for i := range data {
		data[i] = pat[i%period]
	}
	return data
}

// testConfig sizes the pattern table for the unit kernel: large enough that
// a period-sized history set doesn't thrash the tagged entries.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TableEntries = 16384
	cfg.HistBits = 20
	return cfg
}

// run simulates the kernel with co-sim enabled, with a deliberately
// shortened TAGE (4 tables) so the periodic pattern actually mispredicts —
// the unit under test is Bullseye's mechanics, not a predictor shootout.
func run(t *testing.T, attach bool, build func(b *asm.Builder)) (*pipeline.Core, *B) {
	t.Helper()
	bld := asm.NewBuilder()
	build(bld)
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	cfg.BP.TageTables = 4
	cfg.BP.TageHistLens = cfg.BP.TageHistLens[:4]
	c := pipeline.New(cfg, p)
	var by *B
	if attach {
		by = New(testConfig(), c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, by
}

func TestBullseyeLearnsPeriodicPattern(t *testing.T) {
	n := 30000
	data := periodicData(n, 1000, 42)
	_, by := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 16) })
	if by.Stats.Allocs == 0 {
		t.Fatal("no H2P branch allocated a pattern table")
	}
	if by.Stats.Overrides == 0 {
		t.Fatal("no predictions overridden")
	}
	if acc := by.Stats.Accuracy(); acc < 0.85 {
		t.Fatalf("override accuracy = %.3f, want >= 0.85", acc)
	}
	t.Logf("allocs=%d evictions=%d overrides=%d acc=%.3f cov=%.3f",
		by.Stats.Allocs, by.Stats.Evictions, by.Stats.Overrides,
		by.Stats.Accuracy(), by.Stats.Coverage())
}

func TestBullseyeImprovesMPKI(t *testing.T) {
	n := 30000
	data := periodicData(n, 1000, 7)
	build := func(b *asm.Builder) { buildLoopKernel(b, n, data, 16) }
	base, _ := run(t, false, build)
	byC, by := run(t, true, build)
	t.Logf("baseline=%d bullseye=%d mpkiBase=%.2f mpkiBy=%.2f cov=%.3f",
		base.Stats.Cycles, byC.Stats.Cycles, base.Stats.MPKI(), byC.Stats.MPKI(),
		by.Stats.Coverage())
	// Correct fetch-time overrides remove mispredictions entirely.
	if byC.Stats.MPKI() >= base.Stats.MPKI() {
		t.Fatalf("MPKI did not improve: %.2f -> %.2f", base.Stats.MPKI(), byC.Stats.MPKI())
	}
	if byC.Stats.Cycles >= base.Stats.Cycles {
		t.Fatalf("no speedup: %d -> %d cycles", base.Stats.Cycles, byC.Stats.Cycles)
	}
}

func TestBullseyeAbstainsOnRandomData(t *testing.T) {
	// Truly random outcomes: the confidence threshold must keep Bullseye
	// from spraying coin-flip overrides (a few low-confidence slips are
	// fine; systematic overriding is not).
	n := 30000
	rng := uint64(99)
	data := make([]uint64, n)
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		data[i] = rng % 100
	}
	_, by := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 16) })
	if by.Stats.Precomputed > uint64(n/10) {
		t.Fatalf("overrode %d of %d random branches; confidence gate broken",
			by.Stats.Precomputed, n)
	}
}

func TestBullseyeSpecLogRewindOnFlush(t *testing.T) {
	// Instance counting must survive heavy flushing without drifting.
	n := 30000
	data := periodicData(n, 1000, 321)
	_, by := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	// The in-flight counters must mirror the speculative-instance log
	// exactly: any divergence means a flush rewind or retire prune lost an
	// instance, which is how depth drift (and the predictAhead blow-up it
	// causes) starts.
	logged := map[uint64]uint64{}
	for _, rec := range by.specLog {
		logged[rec.pc]++
	}
	for pc, n := range by.inFlight {
		if n != logged[pc] {
			t.Fatalf("pc %#x: inFlight %d but specLog holds %d entries", pc, n, logged[pc])
		}
		if n > 4096 {
			t.Fatalf("pc %#x: in-flight count %d is unbounded", pc, n)
		}
	}
	for pc, n := range logged {
		if by.inFlight[pc] != n {
			t.Fatalf("pc %#x: specLog holds %d entries but inFlight = %d", pc, n, by.inFlight[pc])
		}
	}
}

func TestBullseyeLRUEviction(t *testing.T) {
	// More H2P branches than MaxBranches forces LRU eviction, and instance
	// accounting must survive the eviction/reallocation cycle (co-sim is on,
	// so committed state stays exact regardless).
	n := 8000
	data := periodicData(n, 500, 5)
	bld := asm.NewBuilder()
	const base = 0x200000
	bld.DataU64(base, data)
	bld.Label("main")
	bld.LiU(isa.R1, base)
	bld.Li(isa.R2, int64(n))
	bld.Li(isa.R3, 0)
	bld.Li(isa.R11, 50)
	bld.Label("loop")
	bld.ShlI(isa.R4, isa.R3, 3)
	bld.Add(isa.R4, isa.R1, isa.R4)
	bld.Ld(isa.R5, isa.R4, 0)
	// Four data-dependent branches off the same load: four H2P sites
	// competing for two slots.
	bld.Blt(isa.R5, isa.R11, "s1")
	bld.AddI(isa.R12, isa.R5, 1)
	bld.Label("s1")
	bld.Bge(isa.R5, isa.R11, "s2")
	bld.AddI(isa.R13, isa.R5, 2)
	bld.Label("s2")
	bld.Beq(isa.R5, isa.R11, "s3")
	bld.AddI(isa.R14, isa.R5, 3)
	bld.Label("s3")
	bld.Bne(isa.R5, isa.R11, "s4")
	bld.AddI(isa.R15, isa.R5, 4)
	bld.Label("s4")
	bld.AddI(isa.R3, isa.R3, 1)
	bld.Blt(isa.R3, isa.R2, "loop")
	bld.Halt()
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	cfg.BP.TageTables = 4
	cfg.BP.TageHistLens = cfg.BP.TageHistLens[:4]
	c := pipeline.New(cfg, p)
	byCfg := testConfig()
	byCfg.MaxBranches = 2
	by := New(byCfg, c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if by.Stats.Allocs == 0 {
		t.Fatal("no allocations")
	}
	if by.Stats.Evictions == 0 {
		t.Fatal("four H2P branches in two slots never evicted")
	}
	t.Logf("allocs=%d evictions=%d", by.Stats.Allocs, by.Stats.Evictions)
}

// TestSpecLogSteadyStateAllocs pins the speculative-instance log to one
// backing array: a steady window of fetched-and-retired instances of a
// tracked branch allocates nothing. Slicing the retired head off instead
// abandons the array's front, so appends reallocate every window's worth.
func TestSpecLogSteadyStateAllocs(t *testing.T) {
	bld := asm.NewBuilder()
	bld.Label("main")
	bld.Halt()
	by := New(DefaultConfig(), pipeline.New(pipeline.DefaultConfig(), bld.MustBuild()))
	const pc, window = 0x1000, 32
	by.branches[pc] = &branchEnt{tbl: make([]patEnt, by.Cfg.TableEntries)}
	retiring := &pipeline.Uop{In: &isa.Inst{Op: isa.OpNop}}
	seq := uint64(0)
	for ; seq < window; seq++ {
		by.OverridePrediction(pc, seq)
	}
	steps := func() {
		for i := 0; i < 1000; i++ {
			by.OverridePrediction(pc, seq)
			retiring.Seq = seq - window
			by.OnRetire(retiring)
			seq++
		}
	}
	steps() // reach the working size
	if n := testing.AllocsPerRun(10, steps); n != 0 {
		t.Errorf("1000 fetch/retire steps make %.0f allocations, want 0", n)
	}
	if got := by.inFlight[pc]; got != window {
		t.Errorf("in-flight instances = %d, want %d", got, window)
	}
}
