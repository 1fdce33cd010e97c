package tea

// Internal engine tests: these reach the runFn seam to count and fault
// simulation calls without paying for real runs. The cross-worker
// determinism test on real simulations also lives here so `go test -race`
// exercises the pool end to end.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teasim/tea/spec"
)

// countingEngine returns an engine whose runFn tallies invocations per
// (workload, mode, budget) cell instead of simulating.
func countingEngine(workers int) (*Engine, func() map[string]int) {
	e := NewEngine(workers)
	var mu sync.Mutex
	counts := map[string]int{}
	e.runFn = func(_ context.Context, w string, c Config) (Result, error) {
		mu.Lock()
		counts[fmt.Sprintf("%s/%s/%d", w, c.Mode, c.MaxInstructions)]++
		mu.Unlock()
		// Distinct nonzero cycles keep speedup math finite.
		return Result{Workload: w, Mode: c.Mode, Cycles: 100 + uint64(c.Mode)}, nil
	}
	return e, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// TestFig8BaselineMemoized asserts the paired Fig. 8 experiment simulates
// each workload's baseline exactly once per (workload, budget): without the
// engine's memo cache the TEA and Runahead halves would each run it.
func TestFig8BaselineMemoized(t *testing.T) {
	e, snapshot := countingEngine(4)
	wls := []string{"bfs", "mcf", "gcc"}
	ctx := context.Background()
	o := ExpOptions{MaxInstructions: 1000, Workloads: wls, Engine: e}
	if _, err := RunExperiment(ctx, "fig8", o); err != nil {
		t.Fatal(err)
	}
	counts := snapshot()
	for _, w := range wls {
		key := w + "/baseline/1000"
		if counts[key] != 1 {
			t.Errorf("baseline for %s ran %d times, want exactly 1", w, counts[key])
		}
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("cell %s ran %d times, want 1", k, n)
		}
	}

	// A further experiment on the same engine and budget reuses the cache.
	if _, err := RunExperiment(ctx, "fig5", o); err != nil {
		t.Fatal(err)
	}
	counts = snapshot()
	for _, w := range wls {
		key := w + "/baseline/1000"
		if counts[key] != 1 {
			t.Errorf("after Fig5 reuse, baseline for %s ran %d times, want 1", w, counts[key])
		}
	}
	// A different budget is a different cell and must re-simulate.
	o2 := ExpOptions{MaxInstructions: 2000, Workloads: wls, Engine: e}
	if _, err := RunExperiment(ctx, "fig5", o2); err != nil {
		t.Fatal(err)
	}
	counts = snapshot()
	for _, w := range wls {
		if counts[w+"/baseline/2000"] != 1 {
			t.Errorf("baseline for %s at budget 2000 ran %d times, want 1",
				w, counts[w+"/baseline/2000"])
		}
	}
}

// TestEngineMemoByFingerprint asserts the memo cache keys on the resolved
// machine spec: configs describing the same machine share one simulation no
// matter how they spell it (hand-edited spec, -set patch, or plain preset),
// while a config describing a different machine re-simulates.
func TestEngineMemoByFingerprint(t *testing.T) {
	e, snapshot := countingEngine(2)
	base := Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}
	machine := spec.Baseline()
	machine.Frontend.FetchQueueSize = 64
	edited := base
	edited.Spec = &machine
	patched := base
	patched.Set = []string{"frontend.fetch_queue_size=64"}
	redundant := base
	redundant.Set = []string{"frontend.fetch_queue_size=128"} // the preset value: same machine as base
	jobs := []Job{
		{"bfs", base}, {"bfs", base},
		{"bfs", edited}, {"bfs", edited}, {"bfs", patched},
		{"bfs", redundant},
	}
	if _, err := e.Map(jobs); err != nil {
		t.Fatal(err)
	}
	// base + redundant share one cell; edited (twice) + patched share
	// another.
	if n := snapshot()["bfs/baseline/1000"]; n != 2 {
		t.Fatalf("six equivalent-machine jobs ran %d simulations, want 2 (one per distinct fingerprint)", n)
	}
}

// TestEngineNoMemoForBehavioralConfigs asserts runs whose configuration
// changes what the caller observes — co-simulation, telemetry, idle-skip
// debugging — are never served from the cache.
func TestEngineNoMemoForBehavioralConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"cosim", func(c *Config) { c.CoSim = true }},
		{"intervals", func(c *Config) { c.Intervals = true }},
		{"noidleskip", func(c *Config) { c.DisableIdleSkip = true }},
		{"paranoia", func(c *Config) { c.Paranoia = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, snapshot := countingEngine(2)
			cfg := Config{Mode: ModeBaseline, MaxInstructions: 1000, Scale: 1}
			tc.mut(&cfg)
			if cfg.Memoizable() {
				t.Fatalf("config with %s reports Memoizable", tc.name)
			}
			if _, err := e.Map([]Job{{"bfs", cfg}, {"bfs", cfg}}); err != nil {
				t.Fatal(err)
			}
			if n := snapshot()["bfs/baseline/1000"]; n != 2 {
				t.Fatalf("%s run simulated %d times for two jobs, want 2 (no memoization)", tc.name, n)
			}
		})
	}
}

// TestEnginePanicCapture asserts a panicking job surfaces as that job's
// error instead of killing the process.
func TestEnginePanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewEngine(workers)
		e.runFn = func(_ context.Context, w string, c Config) (Result, error) {
			if w == "boom" {
				panic("simulated wedge")
			}
			return Result{Workload: w, Cycles: 1}, nil
		}
		jobs := []Job{
			{"bfs", Config{Mode: ModeTEA}},
			{"boom", Config{Mode: ModeTEA}},
			{"mcf", Config{Mode: ModeTEA}},
		}
		_, err := e.Map(jobs)
		if err == nil {
			t.Fatalf("workers=%d: expected an error from the panicking job", workers)
		}
		if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: error %q does not identify the panicking job", workers, err)
		}
	}
}

// TestEngineDeterministicError asserts the lowest-index failure wins
// regardless of worker scheduling.
func TestEngineDeterministicError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		e := NewEngine(8)
		e.runFn = func(_ context.Context, w string, c Config) (Result, error) {
			if strings.HasPrefix(w, "bad") {
				return Result{}, fmt.Errorf("fault in %s", w)
			}
			return Result{Workload: w, Cycles: 1}, nil
		}
		jobs := []Job{
			{"ok0", Config{}}, {"bad1", Config{}}, {"ok2", Config{}},
			{"bad3", Config{}}, {"ok4", Config{}},
		}
		_, err := e.Map(jobs)
		if err == nil || !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "bad1") {
			t.Fatalf("trial %d: got %v, want the job-1 fault", trial, err)
		}
	}
}

// TestEngineDeterminismAcrossWorkers is the regression test for the worker
// pool: Fig 5 and Fig 10 on a reduced budget must produce byte-identical
// rows (same values, same order) with 8 workers and with 1. Run under
// `go test -race` this also proves the pool is data-race-free on real
// simulations.
func TestEngineDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulation matrix; skipped in -short mode")
	}
	wls := []string{"bfs", "cc", "mcf", "gcc", "xz", "omnetpp"}
	rowsOn := func(name string, workers int) any {
		t.Helper()
		rep, err := RunExperiment(context.Background(), name,
			ExpOptions{MaxInstructions: 25_000, Scale: 1, Workloads: wls, Engine: NewEngine(workers)})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows()
	}
	for _, name := range []string{"fig5", "fig10"} {
		if seq, par := rowsOn(name, 1), rowsOn(name, 8); !reflect.DeepEqual(seq, par) {
			t.Errorf("%s rows differ between 1 and 8 workers:\nseq: %+v\npar: %+v", name, seq, par)
		}
	}
}
