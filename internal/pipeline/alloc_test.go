package pipeline

import (
	"runtime"
	"runtime/debug"
	"testing"

	"teasim/internal/asm"
	"teasim/internal/telemetry"
	"teasim/internal/workloads"
)

// TestNewAllocs is an allocation tripwire for building a core: lists of one
// element type are carved from one backing array, each pool's first slab
// holds its in-flight bound, and the data image is carved from one slab,
// so the count stays flat however large the machine or however many pages
// the program's data spans (mcf's span about 200). The collector is off
// while it counts: a process's first cycles start the collector's worker
// goroutines, whose allocations would land in the count.
func TestNewAllocs(t *testing.T) {
	const maxAllocs = 29
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload missing")
	}
	prog := w.Shared(1)
	cfg := DefaultConfig()
	n := testing.AllocsPerRun(5, func() { New(cfg, prog) })
	t.Logf("pipeline.New on mcf: %.0f allocations", n)
	if n > maxAllocs {
		t.Errorf("pipeline.New on mcf makes %.0f allocations, want <= %d", n, maxAllocs)
	}
}

// TestWarmCoreAllocs is the tripwire for the core's warm-up, on
// BenchmarkCorePerCycle's torture program and configuration: from the
// moment New returns, filling the pools, queues, scheduler lists and caches
// to their working sizes allocates nothing beyond a few pool slabs.
func TestWarmCoreAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		maxPerKinstr = 0.05
		cycles       = 1_500_000
	)
	b := asm.NewBuilder()
	buildTorture(b, 42, 24, 1_000_000_000) // effectively unbounded
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewCollector(telemetry.Config{Sink: telemetry.NullSink{}})
	c := New(cfg, b.MustBuild())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kinstr := float64(c.Stats.Retired) / 1000
	per := float64(after.Mallocs-before.Mallocs) / kinstr
	t.Logf("%d allocations over %.0f kinstr: %.3f allocs/kinstr",
		after.Mallocs-before.Mallocs, kinstr, per)
	if per > maxPerKinstr {
		t.Errorf("warming core: %.3f allocs/kinstr, want <= %.2f", per, maxPerKinstr)
	}
}
