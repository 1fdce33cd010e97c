package pipeline

import (
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

// runTortureWith runs the random torture program under co-simulation with a
// modified configuration: correctness must hold no matter how small the
// structures are (stalls are allowed; wrong values are not).
func runTortureWith(t *testing.T, mutate func(*Config)) *Core {
	t.Helper()
	b := asm.NewBuilder()
	buildTorture(b, 7, 16, 2500)
	p := b.MustBuild()
	cfg := DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 20_000_000
	mutate(&cfg)
	c := New(cfg, p)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	return c
}

func TestTinyROB(t *testing.T) {
	c := runTortureWith(t, func(cfg *Config) { cfg.ROBSize = 8 })
	if c.Stats.Retired == 0 {
		t.Fatal("nothing retired")
	}
}

func TestTinyRS(t *testing.T) {
	runTortureWith(t, func(cfg *Config) { cfg.RSSize = 4; cfg.Width = 4 })
}

func TestTinyPRF(t *testing.T) {
	// Just enough registers beyond the architectural mapping to make
	// progress; rename must stall, never corrupt.
	runTortureWith(t, func(cfg *Config) { cfg.NumPRegs = 40 })
}

func TestTinyLSQ(t *testing.T) {
	runTortureWith(t, func(cfg *Config) { cfg.LQSize = 2; cfg.SQSize = 2 })
}

func TestTinyFetchQueue(t *testing.T) {
	runTortureWith(t, func(cfg *Config) { cfg.FetchQueueSize = 2 })
}

func TestTinyFrontQCap(t *testing.T) {
	runTortureWith(t, func(cfg *Config) { cfg.FrontQCap = 8 })
}

func TestNarrowMachine(t *testing.T) {
	c := runTortureWith(t, func(cfg *Config) {
		cfg.Width = 1
		cfg.RetireWidth = 1
		cfg.ALUPorts = 1
		cfg.LDPorts = 0
		cfg.LDSTPorts = 1
		cfg.FPPorts = 1
	})
	if c.Stats.IPC() > 1.0 {
		t.Fatalf("1-wide machine with IPC %.2f?", c.Stats.IPC())
	}
}

func TestSingleCycleLatencies(t *testing.T) {
	runTortureWith(t, func(cfg *Config) {
		cfg.MulLat, cfg.DivLat, cfg.FPLat, cfg.FDivLat = 1, 1, 1, 1
	})
}

func TestWiderMachineIsNotSlower(t *testing.T) {
	base := runTortureWith(t, func(cfg *Config) {})
	wide := runTortureWith(t, func(cfg *Config) {
		cfg.Width = 16
		cfg.ALUPorts = 12
		cfg.LDPorts = 4
		cfg.LDSTPorts = 4
		cfg.FrontQCap = 192
	})
	// Same program, strictly more resources: cycle count must not regress
	// by more than scheduling noise.
	if float64(wide.Stats.Cycles) > 1.05*float64(base.Stats.Cycles) {
		t.Fatalf("wider core slower: %d vs %d cycles", wide.Stats.Cycles, base.Stats.Cycles)
	}
}

// TestHaltOnWrongPath: the BP can speculate past a halt; the halt must only
// take effect at retirement, and wrong-path fetch past the code segment
// must not crash the stream.
func TestHaltOnWrongPath(t *testing.T) {
	b := asm.NewBuilder()
	b.Li(isa.R1, 0)
	b.Li(isa.R2, 4000)
	b.Li(isa.R11, 0x9E37)
	b.Label("loop")
	// Data-dependent branch that skips over a halt.
	b.ShlI(isa.R3, isa.R11, 13)
	b.Xor(isa.R11, isa.R11, isa.R3)
	b.ShrI(isa.R3, isa.R11, 7)
	b.Xor(isa.R11, isa.R11, isa.R3)
	b.AndI(isa.R4, isa.R11, 7)
	b.Bnez(isa.R4, "skip") // taken 7/8 of the time
	b.Nop()
	b.Label("skip")
	b.AddI(isa.R1, isa.R1, 1)
	b.Blt(isa.R1, isa.R2, "loop")
	b.Halt()
	p := b.MustBuild()
	cfg := DefaultConfig()
	cfg.CoSim = true
	cfg.MaxCycles = 5_000_000
	c := New(cfg, p)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("did not halt")
	}
}

// TestFlushRestoresRATExactly: after heavy misprediction activity, the
// final architectural register values must match the golden model (implied
// by co-sim at every retirement, asserted explicitly here via MemEquals on
// the data region).
func TestFlushRestoresRATExactly(t *testing.T) {
	c := runTortureWith(t, func(cfg *Config) {})
	if !c.MemEquals(0x200000, 4096) {
		t.Fatal("memory diverged")
	}
	if c.Stats.Flushes == 0 {
		t.Fatal("torture produced no flushes; test is vacuous")
	}
}

// TestDeterminism: two runs of the same program produce identical cycle
// counts and statistics.
func TestDeterminism(t *testing.T) {
	a := runTortureWith(t, func(cfg *Config) {})
	b := runTortureWith(t, func(cfg *Config) {})
	if a.Stats != b.Stats {
		t.Fatalf("non-deterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// A fully random branch must cost noticeably more than a predictable
	// one over the same instruction count.
	build := func(random bool) uint64 {
		b := asm.NewBuilder()
		b.Li(isa.R1, 0)
		b.Li(isa.R2, 30000)
		b.Li(isa.R11, 12345)
		b.Label("loop")
		b.ShlI(isa.R3, isa.R11, 13)
		b.Xor(isa.R11, isa.R11, isa.R3)
		b.ShrI(isa.R3, isa.R11, 7)
		b.Xor(isa.R11, isa.R11, isa.R3)
		if random {
			b.AndI(isa.R4, isa.R11, 1)
		} else {
			b.Li(isa.R4, 1)
		}
		b.Beqz(isa.R4, "skip")
		b.AddI(isa.R5, isa.R5, 1)
		b.Label("skip")
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, "loop")
		b.Halt()
		cfg := DefaultConfig()
		cfg.MaxCycles = 10_000_000
		c := New(cfg, b.MustBuild())
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Stats.Cycles
	}
	predictable := build(false)
	random := build(true)
	if float64(random) < 1.5*float64(predictable) {
		t.Fatalf("random-branch run (%d cyc) not clearly slower than predictable (%d cyc)",
			random, predictable)
	}
}
