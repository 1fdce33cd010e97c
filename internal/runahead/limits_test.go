package runahead

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

func TestBRStatsEdgeCases(t *testing.T) {
	var s Stats
	if s.Accuracy() != 1 {
		t.Fatalf("empty accuracy = %v, want 1", s.Accuracy())
	}
	if s.Coverage() != 0 {
		t.Fatalf("empty coverage = %v, want 0", s.Coverage())
	}
	s.Precomputed, s.PreCorrect = 4, 3
	if s.Accuracy() != 0.75 {
		t.Fatalf("accuracy = %v", s.Accuracy())
	}
	s.CoveredMisp, s.UncoveredMisp, s.IncorrectMisp = 1, 2, 1
	if s.Coverage() != 0.25 {
		t.Fatalf("coverage = %v", s.Coverage())
	}
}

// runCfg runs a kernel with an explicit BR config.
func runCfg(t *testing.T, brCfg spec.Runahead, build func(b *asm.Builder)) (*pipeline.Core, *BR) {
	t.Helper()
	bld := asm.NewBuilder()
	build(bld)
	p := bld.MustBuild()
	cfg := pipeline.DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	c := pipeline.New(cfg, p)
	br := New(brCfg, c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c, br
}

// TestBRChainTableBounded: the dependence-chain table never exceeds
// MaxChains even when more distinct H2P branches exist.
func TestBRChainTableBounded(t *testing.T) {
	cfg := *spec.DefaultRunahead()
	cfg.MaxChains = 1
	n := 20000
	data := randData(n, 13)
	_, br := runCfg(t, cfg, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if len(br.chains) > cfg.MaxChains {
		t.Fatalf("chain table holds %d entries, cap %d", len(br.chains), cfg.MaxChains)
	}
	if br.Stats.ChainsCaptured == 0 {
		t.Fatal("no chain captured even with a 1-entry table")
	}
}

// TestBRQueueDepthBounded: per-branch prediction queues respect QueueDepth.
// With independent-chain spawning the engine races far ahead; the queue cap
// is what stops it from precomputing unboundedly many future instances.
func TestBRQueueDepthBounded(t *testing.T) {
	cfg := *spec.DefaultRunahead()
	cfg.QueueDepth = 4
	n := 20000
	data := randData(n, 29)
	_, br := runCfg(t, cfg, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	for pc, q := range br.queues {
		if len(q) > cfg.QueueDepth {
			t.Fatalf("pc %#x: queue depth %d exceeds cap %d", pc, len(q), cfg.QueueDepth)
		}
	}
	if br.Stats.Overrides == 0 {
		t.Fatal("no overrides with shallow queues")
	}
}

// TestBRRecapture: chains are periodically re-captured (RecaptureEvery), so
// total captures exceed the number of distinct chains over a long run.
func TestBRRecapture(t *testing.T) {
	cfg := *spec.DefaultRunahead()
	cfg.RecaptureEvery = 16
	n := 20000
	data := randData(n, 31)
	_, br := runCfg(t, cfg, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if br.Stats.ChainsCaptured <= uint64(len(br.chains)) {
		t.Fatalf("captured %d chains total for %d table entries: recapture never fired",
			br.Stats.ChainsCaptured, len(br.chains))
	}
}

// TestBRTinyEngineStillCorrect: a starved engine (1 instance, width 1,
// depth-1 queues) must degrade coverage, never correctness — co-sim is on.
func TestBRTinyEngineStillCorrect(t *testing.T) {
	cfg := *spec.DefaultRunahead()
	cfg.MaxInstances = 1
	cfg.EngineWidth = 1
	cfg.QueueDepth = 1
	n := 20000
	data := randData(n, 47)
	cBig, brBig := run(t, true, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	cTiny, brTiny := runCfg(t, cfg, func(b *asm.Builder) { buildLoopKernel(b, n, data, 8) })
	if cTiny.Stats.Retired == 0 || cBig.Stats.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if brTiny.Stats.Overrides > brBig.Stats.Overrides {
		t.Fatalf("starved engine overrode more (%d) than the full engine (%d)",
			brTiny.Stats.Overrides, brBig.Stats.Overrides)
	}
	t.Logf("full engine: overrides=%d cov=%.2f; tiny: overrides=%d cov=%.2f",
		brBig.Stats.Overrides, brBig.Stats.Coverage(),
		brTiny.Stats.Overrides, brTiny.Stats.Coverage())
}
