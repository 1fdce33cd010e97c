package twowin

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

// buildLoopKernel: the data-dependent branch's operands (the loaded value
// and the loop-invariant threshold) become ready well before the branch
// issues whenever the load hits — exactly the window's opportunity.
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

func run(t *testing.T, attach bool, build func(b *asm.Builder)) (*pipeline.Core, *W) {
	t.Helper()
	bld := asm.NewBuilder()
	build(bld)
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	c := pipeline.New(cfg, p)
	var w *W
	if attach {
		w = New(*spec.DefaultTwoWindow(), c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, w
}

func TestTwoWinPrecomputesAndFlushesEarly(t *testing.T) {
	n := 20000
	data := randData(n, 42)
	_, w := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if w.Stats.Tracked == 0 {
		t.Fatal("no branches admitted to the window")
	}
	if w.Stats.Evals == 0 {
		t.Fatal("no early evaluations (operands never seen ready)")
	}
	if w.Stats.EarlyFlushes == 0 {
		t.Fatal("no early flushes on a ~50% mispredicting kernel")
	}
	// Evaluations use actual forwarded register values: always correct.
	if acc := w.Stats.Accuracy(); acc < 0.999 {
		t.Fatalf("precompute accuracy = %.4f, want ~1 (forwarded values are exact)", acc)
	}
	t.Logf("tracked=%d evals=%d agree=%d flushes=%d cov=%.3f saved=%d",
		w.Stats.Tracked, w.Stats.Evals, w.Stats.Agreements,
		w.Stats.EarlyFlushes, w.Stats.Coverage(), w.Stats.CyclesSaved)
}

func TestTwoWinShrinksMispredictPenalty(t *testing.T) {
	n := 20000
	data := randData(n, 7)
	build := func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) }
	base, _ := run(t, false, build)
	wC, w := run(t, true, build)
	speedup := float64(base.Stats.Cycles) / float64(wC.Stats.Cycles)
	t.Logf("baseline=%d twowin=%d speedup=%.3f cov=%.3f covered=%d saved=%d",
		base.Stats.Cycles, wC.Stats.Cycles, speedup,
		w.Stats.Coverage(), w.Stats.CoveredMisp, w.Stats.CyclesSaved)
	if w.Stats.CoveredMisp == 0 {
		t.Fatal("no mispredictions covered by early flushes")
	}
	// Early flushes shrink the penalty but don't remove the misprediction;
	// the win is smaller than a fetch-time override's, but must be real.
	if speedup <= 1.0 {
		t.Fatalf("twowin speedup = %.3f, want > 1.0", speedup)
	}
}

func TestTwoWinWindowBounded(t *testing.T) {
	n := 20000
	data := randData(n, 321)
	_, w := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 4) })
	if len(w.win) > w.Cfg.WindowSize {
		t.Fatalf("window grew to %d entries (cap %d)", len(w.win), w.Cfg.WindowSize)
	}
}

func TestTwoWinQuiescentContract(t *testing.T) {
	// With an empty window the companion must report quiescent (it has no
	// self-scheduled work); with entries pending it must keep ticking.
	w := &W{Cfg: *spec.DefaultTwoWindow()}
	if idle, _ := w.Quiescent(0); !idle {
		t.Fatal("empty window not quiescent")
	}
	w.win = append(w.win, winEntry{seq: 1})
	if idle, _ := w.Quiescent(0); idle {
		t.Fatal("non-empty window claimed quiescent")
	}
}
