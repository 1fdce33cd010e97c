package bench

import (
	"bytes"
	"context"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"teasim/tea"
)

// runStubbed runs a tiny two-kernel batch (set-up plus two passes) whose
// simulations go through run, and returns the check counts.
func runStubbed(t *testing.T, run tea.RunFunc) (attempted, failed int) {
	t.Helper()
	e := &env{seed: 7}
	b := newBatch(e, batchSpec{name: "stub", exp: "fig6", kernels: []string{"mcf", "bfs"}, budget: 3000, warm: 1000, workers: 1})
	b.inner = run
	ctx := context.Background()
	if err := b.setup(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.pass(ctx); err != nil {
			t.Fatal(err)
		}
	}
	verifyCells(&e.chk, map[string]tea.Result{}, e.cells.since(0))
	return e.chk.counts()
}

// A RunFunc that perturbs a single Result must show up in fail_frac.
func TestPerturbedResultCountsAsFailure(t *testing.T) {
	if attempted, failed := runStubbed(t, tea.RunContext); failed != 0 || attempted == 0 {
		t.Fatalf("clean run: %d of %d checks failed", failed, attempted)
	}
	var calls atomic.Int64
	perturb := func(ctx context.Context, w string, cfg tea.Config) (tea.Result, error) {
		res, err := tea.RunContext(ctx, w, cfg)
		if calls.Add(1) == 3 { // the first cell of the first timed pass
			res.Cycles++
		}
		return res, err
	}
	attempted, failed := runStubbed(t, perturb)
	if failed == 0 {
		t.Fatalf("perturbed run: 0 of %d checks failed", attempted)
	}
}

// One round of serve-mix over three kernels passes every check and
// exercises both the store-hit and the simulating path.
func TestServeMixShortRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the in-process daemon for a few seconds")
	}
	tmp := t.TempDir()
	e := &env{seed: 3, tmp: tmp}
	s := newServeMix(e)
	s.kernels = s.kernels[:3]
	ctx := context.Background()
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	err := s.measure(ctx, time.Now())
	s.close()
	if err != nil {
		t.Fatal(err)
	}
	verifyCells(&e.chk, map[string]tea.Result{}, e.cells.since(0))
	if attempted, failed := e.chk.counts(); failed != 0 || attempted == 0 {
		t.Fatalf("serve-mix: %d of %d checks failed: %v", failed, attempted, e.chk.first)
	}
	m, n, tails := map[string]float64{}, map[string]int{}, map[string]float64{}
	s.report(m, n, tails)
	for _, name := range []string{"wall_s", "sim_instrs_per_s", "allocs_per_kinstr", "rss_mb", "peak_rss_mb", "latency_p50_ms", "latency_tail_ms"} {
		if v := m[name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	if m["store.hits"] == 0 || m["serve.simulations"] == 0 {
		t.Errorf("store hits %v, simulations %v: the mix did not exercise both paths", m["store.hits"], m["serve.simulations"])
	}
}

func TestRunPassesStopsAtDeadline(t *testing.T) {
	n := 0
	pass := func(context.Context) (passStat, error) {
		n++
		time.Sleep(20 * time.Millisecond)
		return passStat{wall: 20 * time.Millisecond}, nil
	}
	ps, err := runPasses(context.Background(), time.Now().Add(110*time.Millisecond), pass)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < 3 || len(ps) > 6 {
		t.Errorf("ran %d 20ms passes in a 110ms window", len(ps))
	}
	ps, _ = runPasses(context.Background(), time.Now(), pass)
	if len(ps) != 1 {
		t.Errorf("an expired window ran %d passes, want exactly 1", len(ps))
	}
}

func TestEveryWorkloadIsKnown(t *testing.T) {
	for _, w := range Workloads {
		if _, err := newWorkload(w.Name, &env{}); err != nil {
			t.Error(err)
		}
	}
	if _, err := newWorkload("nope", &env{}); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// BENCHMARK.json at the repository root is rendered from the metric and
// workload tables; regenerate it with `teabench schema > BENCHMARK.json`.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := Schema()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: run `teabench schema > BENCHMARK.json` from the repository root")
	}
}

// Model metrics must be identical whatever order the kernels ran in.
func TestModelMetricsIgnoreKernelOrder(t *testing.T) {
	cells := func(order []string) []cellRec {
		var cs []cellRec
		for _, w := range order {
			res, err := tea.Run(w, tea.Config{MaxInstructions: 2000, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, cellRec{workload: w, cfg: tea.Config{MaxInstructions: 2000, Scale: 1}, res: res})
		}
		return cs
	}
	a, b := map[string]float64{}, map[string]float64{}
	modelMetrics(a, cells([]string{"mcf", "bfs", "xz"}))
	modelMetrics(b, cells([]string{"xz", "mcf", "bfs"}))
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v in one order, %v in another", k, v, b[k])
		}
	}
	if a["model.sim_ipc_geomean"] == 0 {
		t.Error("no IPC geomean from baseline cells")
	}
}
