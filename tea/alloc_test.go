package tea

import (
	"io"
	"runtime"
	"testing"

	"teasim/tea/spec"
)

// maxSteadyAllocsPerKinstr is the core's allocation standard: the heap
// allocations each shootout kind may make per simulated kilo-instruction
// once a cell is past its set-up. The core's own warm-up allocates almost
// nothing (its structures are sized in pipeline.New); what remains is
// Branch Runahead's per-capture chains, 2.3–2.5 on exchange2 since a
// recapture that reproduces the stored chain shares its uops.
const maxSteadyAllocsPerKinstr = 3

// TestCompanionSteadyStateAllocs is an allocation tripwire for every
// shootout kind. A cell's set-up allocates the same whatever its budget, so
// the mallocs of a 120k-instruction run minus those of a 20k run are the
// steady-state allocations of 100k simulated instructions. mcf is a
// representative SPEC kernel; exchange2 is the kernel where Branch
// Runahead's engine launches the most chain instances.
func TestCompanionSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mallocs := func(wl string, cfg Config, n uint64) uint64 {
		t.Helper()
		cfg.MaxInstructions = n
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(wl, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	o := ExpOptions{}.fill()
	for _, wl := range []string{"mcf", "exchange2"} {
		for _, kind := range ShootoutKinds() {
			cfg := kindConfig(o, kind)
			mallocs(wl, cfg, 1_000) // warm the shared program
			short := mallocs(wl, cfg, 20_000)
			long := mallocs(wl, cfg, 120_000)
			per := (float64(long) - float64(short)) / 100
			t.Logf("%-9s %-9s %6.1f allocs/kinstr", wl, kind, per)
			if per > maxSteadyAllocsPerKinstr {
				t.Errorf("%s/%s: %.1f allocs/kinstr in steady state, want <= %d",
					wl, kind, per, maxSteadyAllocsPerKinstr)
			}
		}
	}
}

// TestMemoKeyOfAllocs is an allocation tripwire for the store-hit path: once
// a preset point's fingerprint is cached, deriving a cell's memo key
// allocates nothing, for every registered preset (the shootout's zoo cells
// included).
func TestMemoKeyOfAllocs(t *testing.T) {
	for _, name := range spec.Presets() {
		m := Mode(name)
		cfg := ExpOptions{MaxInstructions: 10_000}.cfg(m)
		if _, ok := MemoKeyOf("mcf", cfg); !ok {
			t.Fatalf("%v: cell not memoizable", m)
		}
		if n := testing.AllocsPerRun(100, func() { MemoKeyOf("mcf", cfg) }); n != 0 {
			t.Errorf("%v: MemoKeyOf makes %.0f allocations, want 0", m, n)
		}
	}
}

// raceEnabled is set in -race builds (race_test.go). Their sync.Pool drops
// a random quarter of its Puts, so a count that depends on a pool is held
// to a race bound there.
var raceEnabled bool

// maxFig8JSONAllocs bounds building a 3-row Fig 8 report and writing it as
// JSON, the body of the daemon's commonest response; maxRaceFig8JSONAllocs
// is the bound in -race builds (Go 1.24 measures 22–25 there).
const (
	maxFig8JSONAllocs     = 20
	maxRaceFig8JSONAllocs = 30
)

func TestFig8JSONAllocs(t *testing.T) {
	rows := []Fig8Row{
		{Workload: "mcf", SimpleFlow: false, TEA: 1.2, Runahead: 1.05},
		{Workload: "bfs", SimpleFlow: true, TEA: 1.25, Runahead: 1.0},
		{Workload: "xz", SimpleFlow: true, TEA: 0.97, Runahead: 0.9},
	}
	n := testing.AllocsPerRun(100, func() {
		if err := fig8Report(rows).write(io.Discard, FormatJSON); err != nil {
			t.Fatal(err)
		}
	})
	limit := maxFig8JSONAllocs
	if raceEnabled {
		limit = maxRaceFig8JSONAllocs
	}
	t.Logf("3-row Fig 8 as JSON: %.0f allocations", n)
	if n > float64(limit) {
		t.Errorf("building and writing a 3-row Fig 8 report as JSON makes %.0f allocations, want <= %d", n, limit)
	}
}

// kindConfig is the shootout's cell config for kind, the baseline for none.
func kindConfig(o ExpOptions, kind spec.CompanionKind) Config {
	if kind == spec.CompanionNone {
		return o.cfg(ModeBaseline)
	}
	return o.cfg(Mode(kind))
}
