package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"teasim/tea"
	"teasim/tea/fabric"

	"teabench/internal/stat"
)

// batchSpec sizes one closed-batch workload. Budgets are per cell. Cells are
// long enough that workload builds and other per-cell set-up stay a small
// share of a pass, as in the runs a researcher waits for, and a pass is short
// enough that a 20 s run on a 2-core machine holds one even in a slow spell,
// and two or three otherwise; the run stops when the next pass would overrun.
type batchSpec struct {
	name    string
	exp     string   // tea registry experiment each pass runs
	kernels []string // nil = the whole suite
	budget  uint64   // instructions per cell in a timed pass
	warm    uint64   // instructions per cell in the set-up warm-up pass
	workers int      // engine workers
	fabric  bool     // dispatch through teaworker processes
}

var (
	shootoutSpec = batchSpec{name: "zoo-shootout", exp: "shootout", budget: 100_000, warm: 1_000, workers: 2}
	coreLongSpec = batchSpec{name: "core-long", exp: "fig6", kernels: []string{"mcf", "omnetpp", "x264", "leela"},
		budget: 1_000_000, warm: 100_000, workers: 1}
	fabricSpec = batchSpec{name: "fabric-scale", exp: "shootout", budget: 50_000, warm: 1_000, workers: 2, fabric: true}
)

// batch runs an experiment matrix on a fresh engine per pass; each pass
// orders the kernels by its own seeded permutation.
type batch struct {
	e       *env
	spec    batchSpec
	inner   tea.RunFunc // in-process simulation; tests substitute a stub
	kernels []string
	next    int          // permutation index of the next pass
	expSpan atomic.Int64 // the running experiment's span, parent of its cells
	passes  []passStat

	// fabric-scale only: a 1-worker and a 2-worker pool, the 1-worker
	// pass, and each pass's rendered report by permutation index.
	fab1, fab2 *fabricPool
	one        passStat
	report1    []byte
	reports2   map[int][]byte
	stats0     fabric.Stats
}

func newBatch(e *env, s batchSpec) *batch {
	b := &batch{e: e, spec: s, inner: tea.RunContext, kernels: s.kernels, reports2: map[int][]byte{}}
	if b.kernels == nil {
		b.kernels = tea.Workloads()
	}
	return b
}

func (b *batch) params() map[string]any {
	p := map[string]any{
		"experiment": b.spec.exp, "kernels": b.kernels, "instructions_per_cell": b.spec.budget,
		"warmup_instructions_per_cell": b.spec.warm, "engine_workers": b.spec.workers, "scale": 1,
	}
	if b.spec.fabric {
		p["fabric_workers"] = []int{1, 2}
	}
	return p
}

// runExp runs one pass of the experiment through run and renders its report.
func (b *batch) runExp(ctx context.Context, run tea.RunFunc, budget uint64, perm int) (passStat, []byte, error) {
	kernels := permute(b.kernels, b.e.seed, perm)
	group := fmt.Sprintf("pass-%d", perm)
	eng := tea.NewEngine(b.spec.workers, tea.WithRunFunc(b.e.cells.wrap(run, &b.e.rec, "cell",
		func(context.Context) (string, int) { return group, int(b.expSpan.Load()) })))
	rec := b.e.rec.Load()
	var body bytes.Buffer
	var rep *tea.Report
	var render time.Duration
	ps, err := b.e.timed(func() error {
		pass := rec.Begin("pass", group, -1)
		defer rec.End(pass)
		exp := rec.Begin("experiment", group, pass)
		b.expSpan.Store(int64(exp))
		var err error
		rep, err = tea.RunExperiment(ctx, b.spec.exp, tea.ExpOptions{
			MaxInstructions: budget, Scale: 1, Workloads: kernels, Engine: eng,
		})
		rec.End(exp)
		if err != nil {
			return err
		}
		r := rec.Begin("render", group, pass)
		start := time.Now()
		err = rep.Write(&body, tea.FormatCSV)
		render = time.Since(start)
		rec.End(r)
		return err
	})
	if err != nil {
		return ps, nil, fmt.Errorf("%s pass: %w", b.spec.name, err)
	}
	ps.render, ps.memoHits = render, eng.MemoStats().Hits
	b.e.chk.check(rep.ErrorRows() == 0, "%s: %d error rows in the report", b.spec.name, rep.ErrorRows())
	return ps, body.Bytes(), nil
}

func (b *batch) setup(ctx context.Context) error {
	if !b.spec.fabric {
		_, _, err := b.runExp(ctx, b.inner, b.spec.warm, 0)
		return err
	}
	b.closePools()
	var err error
	if b.fab1, err = newFabricPool(b.e.tmp, 1); err != nil {
		return err
	}
	if b.fab2, err = newFabricPool(b.e.tmp, 2); err != nil {
		return err
	}
	for _, p := range []*fabricPool{b.fab1, b.fab2} {
		if _, _, err := b.runExp(ctx, p.co.RunFunc(nil), b.spec.warm, 0); err != nil {
			return err
		}
	}
	b.stats0 = b.fab2.co.Stats()
	return nil
}

// pass runs one timed pass: in-process, or on the 2-worker pool.
func (b *batch) pass(ctx context.Context) (passStat, error) {
	perm := b.next
	b.next++
	run := b.inner
	if b.spec.fabric {
		run = b.fab2.co.RunFunc(nil)
	}
	ps, body, err := b.runExp(ctx, run, b.spec.budget, perm)
	if b.spec.fabric {
		b.reports2[perm] = body
	}
	return ps, err
}

func (b *batch) measure(ctx context.Context, deadline time.Time) error {
	if b.spec.fabric {
		// The 1-worker pass orders kernels like the first 2-worker pass, so
		// their reports must match byte for byte.
		ps, body, err := b.runExp(ctx, b.fab1.co.RunFunc(nil), b.spec.budget, 0)
		if err != nil {
			return err
		}
		b.one, b.report1 = ps, body
	}
	var err error
	b.passes, err = runPasses(ctx, deadline, b.pass)
	return err
}

func (b *batch) modelCells() []cellRec {
	if len(b.passes) == 0 {
		return nil
	}
	return b.passes[0].cells
}

func (b *batch) closePools() {
	for _, p := range []*fabricPool{b.fab1, b.fab2} {
		if p != nil {
			p.close()
		}
	}
}

func (b *batch) close() {
	if !b.spec.fabric || b.fab2 == nil {
		return
	}
	for _, p := range []*fabricPool{b.fab1, b.fab2} {
		st := p.co.Stats()
		b.e.chk.check(st.Fallbacks == 0 && st.Crashes == 0 && st.Quarantined == 0,
			"fabric (%d workers): %d fallbacks, %d crashes, %d quarantined", st.Workers, st.Fallbacks, st.Crashes, st.Quarantined)
	}
	if ref, ok := b.reports2[0]; ok {
		b.e.chk.check(bytes.Equal(ref, b.report1), "fabric: the 1-worker and 2-worker reports differ")
	}
	b.closePools()
}

func (b *batch) report(m map[string]float64, n map[string]int, tails map[string]float64) {
	throughputMetrics(m, b.passes)
	latencyMetrics(m, n, tails, b.passes)
	rssMetric(m, b.passes)
	var idle time.Duration
	var renders []float64
	memo := 0
	for _, p := range b.passes {
		idle += time.Duration(b.spec.workers)*p.wall - p.busy()
		renders = append(renders, ms(p.render))
		memo += p.memoHits
	}
	m["engine.memo_hits"] = float64(memo)
	m["engine.idle_s"] = idle.Seconds()
	m["engine.render_ms"] = stat.Median(renders)
	if !b.spec.fabric {
		return
	}
	var rtt []float64
	var coord time.Duration
	for _, p := range b.passes {
		coord += p.cpu
		for _, c := range p.cells {
			rtt = append(rtt, ms(c.dur))
		}
	}
	st := b.fab2.co.Stats()
	m["fabric.spawn_s"] = b.fab2.spawn.Seconds()
	m["fabric.cell_rtt_p50_ms"] = stat.Percentile(rtt, 50)
	n["fabric.cell_rtt_p50_ms"] = len(rtt)
	m["fabric.idle_s"] = idle.Seconds()
	m["fabric.dispatched"] = float64(st.Dispatched - b.stats0.Dispatched)
	m["fabric.shards"] = float64(st.Shards - b.stats0.Shards)
	m["fabric.requeues"] = float64(st.Requeues - b.stats0.Requeues)
	m["fabric.coord_cpu_s"] = coord.Seconds()
	cpu1, rss1 := b.fab1.usage()
	cpu2, rss2 := b.fab2.usage()
	m["fabric.worker_cpu_s"] = (cpu1 + cpu2).Seconds()
	m["fabric.worker_rss_mb"] = max(rss1, rss2)
	m["fabric.wall_1w_s"] = b.one.wall.Seconds()
	m["fabric.scaling_eff"] = b.one.wall.Seconds() / (2 * m["wall_s"])
}

// fabricPool is one fabric coordinator with its teaworker processes. It
// spawns the workers itself, the way the coordinator's default does, so it
// can wait for each to exit and read its resource usage.
type fabricPool struct {
	co    *fabric.Coordinator
	spawn time.Duration // fabric.New: process spawn

	wg     sync.WaitGroup
	mu     sync.Mutex
	cpu    time.Duration
	maxRSS float64 // MB
}

func newFabricPool(tmp string, workers int) (*fabricPool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	worker := filepath.Join(filepath.Dir(exe), "teaworker")
	if _, err := os.Stat(worker); err != nil {
		return nil, fmt.Errorf("fabric-scale needs teaworker beside teabench: %w", err)
	}
	dir, err := os.MkdirTemp(tmp, "fabric-*")
	if err != nil {
		return nil, err
	}
	p := &fabricPool{}
	start := time.Now()
	p.co, err = fabric.New(fabric.Config{Workers: workers, Dir: dir, Spawn: p.spawner(worker)})
	p.spawn = time.Since(start)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *fabricPool) spawner(worker string) fabric.SpawnFunc {
	return func(id int, journal string) (*fabric.Proc, error) {
		cmd := exec.Command(worker, "-journal", journal)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p.wg.Add(1)
		var once sync.Once
		var werr error
		wait := func() error {
			once.Do(func() {
				defer p.wg.Done()
				werr = cmd.Wait()
				if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
					p.mu.Lock()
					p.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
					p.maxRSS = max(p.maxRSS, float64(ru.Maxrss)/1024)
					p.mu.Unlock()
				}
			})
			return werr
		}
		return &fabric.Proc{In: stdin, Out: stdout, Kill: func() { cmd.Process.Kill() }, Wait: wait}, nil
	}
}

// close shuts the pool down and waits until every worker has exited.
func (p *fabricPool) close() {
	p.co.Close()
	p.wg.Wait()
}

// usage is the CPU time and peak RSS (MB) of the pool's exited workers.
func (p *fabricPool) usage() (time.Duration, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cpu, p.maxRSS
}
