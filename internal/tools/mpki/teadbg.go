package main

import (
	"fmt"
	"os"

	"teasim/internal/core"
	"teasim/internal/pipeline"
	"teasim/internal/workloads"
)

// probeInstrs is the instruction budget of the tea and base probes.
const probeInstrs = 400_000

// newCore builds a Table I core for the workload at the probe budget.
func newCore(w workloads.Workload) *pipeline.Core {
	cfg := pipeline.DefaultConfig()
	cfg.MaxInstructions = probeInstrs
	cfg.MaxCycles = 100_000_000
	return pipeline.New(cfg, w.Build(1))
}

// run simulates the probe's core, exiting 1 if the simulation fails.
func run(c *pipeline.Core) {
	if err := c.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpki:", err)
		os.Exit(1)
	}
}

// teaDebug dumps the TEA thread's internal counters and Block Cache state.
func teaDebug(w workloads.Workload) {
	c := newCore(w)
	t := core.New(core.DefaultConfig(), c)
	run(c)
	s := t.Stats
	fmt.Printf("%s: cyc=%d act=%d inact=%d armMiss=%d termBC=%d termInc=%d termLate=%d\n",
		w.Name, c.Stats.Cycles, s.Activations, s.InactiveCycles, s.ArmMiss, s.TermBCMiss, s.TermIncorrect, s.TermLate)
	fmt.Printf("   walks=%d marked=%d bcHits=%d bcEmpty=%d bcLook=%d bcUpd=%d uopsF=%d uopsR=%d prstall=%d\n",
		s.WalksDone, s.WalkMarked, t.BC.Hits, t.BC.EmptyHits, t.BC.Lookups, t.BC.Updates, s.UopsFetched, s.UopsRenamed, s.PRStallCycles)
	for _, pc := range []uint64{0x100d0, 0x10028, 0x1003c} {
		m, cnt, h := t.BC.Lookup(pc)
		fmt.Printf("   BC[%#x]: hit=%v count=%d mask=%b\n", pc, h, cnt, m)
	}
	fmt.Printf("   resolved=%d early=%d agree=%d late=%d blocked=%d cov=%.2f acc=%.2f flushMain=%d flushCkpt=%d flushNo=%d poisonViol=%d\n",
		s.Resolved, s.EarlyFlushes, s.Agreements, s.LateEvents, s.BlockedFlushes, s.Coverage(), s.Accuracy(), s.FlushMainSync, s.FlushCkptSync, s.FlushNoSync, s.PoisonViolations)
	dumpPipe(c)
}

// baseDebug dumps the baseline core's pipeline and cache counters.
func baseDebug(w workloads.Workload) {
	c := newCore(w)
	run(c)
	fmt.Printf("%s baseline: cyc=%d\n", w.Name, c.Stats.Cycles)
	dumpPipe(c)
}

func dumpPipe(c *pipeline.Core) {
	ps := c.Stats
	fmt.Printf("   pipe: flushes=%d early=%d resteer=%d fetchStallICM=%d emptyFQ=%d fetched=%d exec=%d compUops=%d retireStallROB=%d\n",
		ps.Flushes, ps.EarlyFlushes, ps.ResteerDecode, ps.FetchStallICM, ps.EmptyFetchQ, ps.FetchedUops, ps.ExecutedUops, ps.CompanionUops, ps.RetireStallROB)
	fmt.Printf("   mem: L1D acc=%d miss=%d  L1I acc=%d miss=%d  LLC acc=%d miss=%d dram=%d\n",
		c.Hier.L1D.Accesses, c.Hier.L1D.Misses, c.Hier.L1I.Accesses, c.Hier.L1I.Misses,
		c.Hier.LLC.Accesses, c.Hier.LLC.Misses, c.Hier.DRAM.Reads)
}
