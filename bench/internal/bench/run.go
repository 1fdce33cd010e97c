// Package bench runs the repository benchmark: four workloads driven
// through the simulator's public API, timed from outside, with their outputs
// checked, and — in a traced run — broken down by layer.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"teasim/tea"
	"teasim/tea/spec"

	"teabench/internal/prof"
	"teabench/internal/stat"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// Options configure one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceDir string    // where a traced run writes spans.jsonl and cpu.pprof
	Log      io.Writer // progress and failures
}

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is one run's result; run.json is its JSON form.
type Outcome struct {
	Schema    string           `json:"schema"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Params    map[string]any   `json:"params"`
	Machine   Machine          `json:"machine"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	// Samples counts the observations behind each percentile metric, and
	// TailPct names the percentile each *_tail_* metric took by the tail rule.
	Samples map[string]int     `json:"samples"`
	TailPct map[string]float64 `json:"tail_pct,omitempty"`
}

// env is what every workload shares: the seed, the span recorder (nil until
// tracing starts), the output checker, the cell log, and a scratch directory.
type env struct {
	seed  int64
	rec   atomic.Pointer[Recorder]
	chk   checker
	cells cellLog
	tmp   string
}

// passStat is one unit of timed work.
type passStat struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	rss      float64   // median resident set during the pass, MB (see rssSampler)
	peakRSS  float64   // largest resident set sampled during the pass, MB
	cells    []cellRec // cells simulated during the pass
	lat      []float64 // its cells' latencies at the RunFunc seam, ms
	render   time.Duration
	memoHits int
}

func (p passStat) instrs() uint64 {
	var n uint64
	for _, c := range p.cells {
		n += c.res.Instructions
	}
	return n
}

func (p passStat) busy() time.Duration {
	var d time.Duration
	for _, c := range p.cells {
		d += c.dur
	}
	return d
}

// timed runs f and captures its wall time, CPU, allocations and cells.
func (e *env) timed(f func() error) (passStat, error) {
	mark := e.cells.len()
	rss := sampleRSS()
	m0, c0 := mallocs(), cpuTime()
	start := time.Now()
	err := f()
	ps := passStat{wall: time.Since(start)}
	ps.cpu, ps.mallocs = cpuTime()-c0, mallocs()-m0
	ps.rss, ps.peakRSS = rss.finish()
	ps.cells = e.cells.since(mark)
	for _, c := range ps.cells {
		ps.lat = append(ps.lat, ms(c.dur))
	}
	return ps, err
}

// workload is one benchmark workload.
type workload interface {
	params() map[string]any
	// setup builds fresh state, replacing any earlier set-up's.
	setup(ctx context.Context) error
	// pass runs one unit of work; measure runs the whole timed window.
	pass(ctx context.Context) (passStat, error)
	measure(ctx context.Context, deadline time.Time) error
	// modelCells is a set of cells fixed by the seed, for the model metrics.
	modelCells() []cellRec
	// report fills the workload's end-to-end and per-layer metrics. It runs
	// after close, so it may read what only shutting down reveals.
	report(m map[string]float64, n map[string]int, tails map[string]float64)
	close()
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "zoo-shootout":
		return newBatch(e, shootoutSpec), nil
	case "core-long":
		return newBatch(e, coreLongSpec), nil
	case "fabric-scale":
		return newBatch(e, fabricSpec), nil
	case "serve-mix":
		return newServeMix(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of zoo-shootout, core-long, serve-mix, fabric-scale)", name)
}

// Run executes one run of a workload.
func Run(ctx context.Context, o Options) (*Outcome, error) {
	age, err := processAge()
	if err != nil {
		return nil, fmt.Errorf("process start time: %w", err)
	}
	tmp, err := os.MkdirTemp("", "teabench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: o.Seed, tmp: tmp}
	w, err := newWorkload(o.Workload, e)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	var setups []float64
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(o.Log, "teabench: %s seed %d: set-up %.3fs (median of %d) after %.3fs of process start\n",
		o.Workload, o.Seed, stat.Median(setups), setupReps, age.Seconds())

	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	var ref passStat
	var cpuProf *profile
	if o.Trace {
		// An untraced pass first, to price the tracing itself.
		if ref, err = w.pass(ctx); err != nil {
			return nil, err
		}
		if cpuProf, err = startProfile(o.TraceDir); err != nil {
			return nil, err
		}
		e.rec.Store(newRecorder())
	}
	mark := e.cells.len()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measureErr := w.measure(ctx, deadline)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	var profCPU time.Duration
	if cpuProf != nil {
		profCPU = cpuProf.stop()
	}
	if measureErr != nil {
		return nil, measureErr
	}
	w.close()
	closed = true
	verifyCells(&e.chk, map[string]tea.Result{}, e.cells.since(0))

	m := map[string]float64{}
	n := map[string]int{}
	tails := map[string]float64{}
	for _, def := range perLayer {
		m[def.Name] = 0
	}
	m["setup_s"] = age.Seconds() + stat.Median(setups)
	cellMetrics(m, n, tails, e.cells.since(mark))
	modelMetrics(m, w.modelCells())
	m["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	w.report(m, n, tails)
	if o.Trace {
		if err := cpuProf.fold(m, profCPU); err != nil {
			return nil, err
		}
		if err := e.rec.Load().WriteJSONL(filepath.Join(o.TraceDir, "spans.jsonl")); err != nil {
			return nil, err
		}
		m["trace.overhead_pct"] = 100 * (m["wall_s"]/ref.wall.Seconds() - 1)
	} else {
		// Only a traced run measures these; an untraced one must not read 0.
		for _, l := range prof.Layers {
			delete(m, l+".cpu_s")
		}
		delete(m, "trace.overhead_pct")
	}

	attempted, failed := e.chk.counts()
	out := &Outcome{
		Schema: "teabench/1", Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Params: w.params(), Machine: fingerprint(),
		Correct: failed == 0, Attempted: attempted, Failed: failed, Failures: e.chk.first,
		Metrics: map[string]Value{}, Samples: n, TailPct: tails,
	}
	if attempted > 0 {
		out.FailFrac = float64(failed) / float64(attempted)
	}
	for _, def := range Metrics() {
		if v, ok := m[def.Name]; ok {
			out.Metrics[def.Name] = Value{v, def.Unit}
		}
	}
	return out, nil
}

// runPasses repeats pass until starting another would overrun the
// deadline; it always runs at least one.
func runPasses(ctx context.Context, deadline time.Time, pass func(context.Context) (passStat, error)) ([]passStat, error) {
	var ps []passStat
	for {
		p, err := pass(ctx)
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
		var walls []float64
		for _, q := range ps {
			walls = append(walls, q.wall.Seconds())
		}
		next := time.Duration(stat.Median(walls) * float64(time.Second))
		if time.Now().Add(next).After(deadline) {
			return ps, nil
		}
	}
}

// throughputMetrics fills the median pass wall time, the median simulation
// rate, and allocations per simulated kilo-instruction over all passes. A
// batch run holds one long pass, so its medians are that pass's figures.
func throughputMetrics(m map[string]float64, ps []passStat) {
	var walls, rates []float64
	var allocs, instrs uint64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.instrs())/p.wall.Seconds())
		allocs += p.mallocs
		instrs += p.instrs()
	}
	m["wall_s"] = stat.Median(walls)
	m["sim_instrs_per_s"] = stat.Median(rates)
	m["allocs_per_kinstr"] = float64(allocs) / (float64(instrs) / 1000)
}

// latencyMetrics pools the op latencies of every pass and fills their
// median and their tail by the tail rule, with the sample count and the
// percentile the tail took.
func latencyMetrics(m map[string]float64, n map[string]int, tails map[string]float64, ps []passStat) {
	var lat []float64
	for _, p := range ps {
		lat = append(lat, p.lat...)
	}
	tailMetrics(m, n, tails, "latency_p50_ms", "latency_tail_ms", lat)
}

// tailMetrics fills a median and a tail-rule percentile of xs under the
// given names.
func tailMetrics(m map[string]float64, n map[string]int, tails map[string]float64, p50, tail string, xs []float64) {
	m[p50], n[p50] = stat.Median(xs), len(xs)
	v, p := stat.Tail(xs)
	m[tail], n[tail], tails[tail] = v, len(xs), p
}

// rssMetric fills the median over passes of each pass's median resident
// set, and the largest resident set sampled in any pass.
func rssMetric(m map[string]float64, ps []passStat) {
	var rss []float64
	for _, p := range ps {
		rss = append(rss, p.rss)
		m["peak_rss_mb"] = max(m["peak_rss_mb"], p.peakRSS)
	}
	m["rss_mb"] = stat.Median(rss)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cellMetrics fills the engine and simulator metrics seen at the RunFunc
// seam over the measured window.
func cellMetrics(m map[string]float64, n map[string]int, tails map[string]float64, cells []cellRec) {
	var durs []float64
	var busy time.Duration
	var instrs, cycles uint64
	for _, c := range cells {
		durs = append(durs, ms(c.dur))
		busy += c.dur
		instrs += c.res.Instructions
		cycles += c.res.Cycles
	}
	m["engine.cells"] = float64(len(cells))
	if len(cells) > 0 {
		tailMetrics(m, n, tails, "engine.cell_p50_ms", "engine.cell_tail_ms", durs)
	}
	m["sim.busy_s"] = busy.Seconds()
	if instrs > 0 {
		m["sim.host_ns_per_instr"] = float64(busy.Nanoseconds()) / float64(instrs)
		m["sim.host_ns_per_cycle"] = float64(busy.Nanoseconds()) / float64(cycles)
	}
}

// kindOf resolves which companion a cell's machine carries.
func kindOf(cfg tea.Config) spec.CompanionKind {
	ms, err := cfg.ResolvedSpec()
	if err != nil {
		return ""
	}
	return ms.Companion.Kind
}

// modelMetrics computes the model's outputs over a seed-fixed cell set. Rows
// are sorted by kernel name first, so kernel order cannot change a float sum.
func modelMetrics(m map[string]float64, cells []cellRec) {
	seen := map[string]bool{}
	byKind := map[spec.CompanionKind][]tea.Result{}
	for _, c := range cells {
		if k := cellKey(c); !seen[k] && c.err == nil {
			seen[k] = true
			kind := kindOf(c.cfg)
			byKind[kind] = append(byKind[kind], c.res)
			m["pipeline.sim_cycles"] += float64(c.res.Cycles)
			m["pipeline.sim_instrs"] += float64(c.res.Instructions)
			m["bpred.mispredicts"] += float64(c.res.CondMispredicts + c.res.IndMispredicts)
		}
	}
	for _, rs := range byKind {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Workload != rs[j].Workload {
				return rs[i].Workload < rs[j].Workload
			}
			return rs[i].Instructions < rs[j].Instructions
		})
	}
	for _, k := range companionKinds {
		rs := byKind[spec.CompanionKind(k)]
		if len(rs) == 0 {
			continue
		}
		var acc, cov, uop float64
		for _, r := range rs {
			acc += r.Accuracy
			cov += r.Coverage
			uop += r.UopOverheadPct
		}
		n := float64(len(rs))
		m[k+".accuracy"], m[k+".coverage"], m[k+".extra_uop_pct"] = acc/n, cov/n, uop/n
	}
	base := byKind[spec.CompanionNone]
	var ipcs, speedups []float64
	for _, b := range base {
		ipcs = append(ipcs, b.IPC)
		for _, t := range byKind[spec.CompanionTEA] {
			if t.Workload == b.Workload && t.Instructions > 0 && t.Cycles > 0 && b.Instructions == t.Instructions {
				speedups = append(speedups, float64(b.Cycles)/float64(t.Cycles))
			}
		}
	}
	if len(ipcs) > 0 {
		m["model.sim_ipc_geomean"] = tea.Geomean(ipcs)
	}
	if len(speedups) > 0 {
		m["model.tea_speedup_geomean_pct"] = 100 * (tea.Geomean(speedups) - 1)
	}
}

// permute returns the kernels in the order seed and index pick.
func permute(kernels []string, seed int64, index int) []string {
	out := append([]string(nil), kernels...)
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(index)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// profile is a CPU profile being written for a traced run.
type profile struct {
	path string
	f    *os.File
	cpu0 time.Duration
}

func startProfile(dir string) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profile{path: filepath.Join(dir, "cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f, p.cpu0 = f, cpuTime()
	return p, nil
}

// stop ends the profile and returns the process CPU time it covered.
func (p *profile) stop() time.Duration {
	pprof.StopCPUProfile()
	cpu := cpuTime() - p.cpu0
	p.f.Close()
	return cpu
}

// fold charges the profile to layers and stores each layer's CPU seconds.
func (p *profile) fold(m map[string]float64, cpu time.Duration) error {
	secs, err := FoldProfile(p.path, cpu)
	if err != nil {
		return err
	}
	for l, s := range secs {
		m[l+".cpu_s"] = s
	}
	return writeCPUSeconds(filepath.Dir(p.path), cpu)
}
