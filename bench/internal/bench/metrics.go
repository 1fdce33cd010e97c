package bench

import (
	"bytes"
	"encoding/json"

	"teabench/internal/prof"
	"teabench/internal/stat"
)

// Metric is one number the benchmark reports. Only end-to-end metrics have
// a Bound; Exact marks modelled outputs, which repeat bit for bit.
type Metric struct {
	stat.Def
	Layer bool `json:"-"` // per-layer tier, printed by traced runs
}

func e2e(name, unit, better string, bound float64) Metric {
	return Metric{Def: stat.Def{Name: name, Unit: unit, Better: better, Bound: bound}}
}

// endToEnd is measured with tracing off and gates every later change, so
// each bound holds the metric's drift between runs with room to spare.
// Every workload reports every one; README.md says what each means on each.
// Set-up is host time and drifts with the machine: its median over ten
// runs moved by up to 13% between sets of the same code, so it gets the
// largest bound. Allocation counts repeat, except that the fabric
// coordinator decodes a heartbeat frame per worker every 200 ms, so its
// count rises about 0.6% for each 10% the machine slows.
var endToEnd = []Metric{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("allocs_per_kinstr", "allocs/kinstr", "lower", 0.05),
}

// ungated are what the user of each workload waits for — wall time,
// simulation speed, op latency — and the memory it holds. On a 2-vCPU VM
// whose speed drifts by 10-20% between runs, and with a resident set that
// moves with garbage-collector timing and with which cells overlapped,
// they spread too wide for a bound a change could be held to, so they gate
// nothing: every run.json carries them, a traced run prints them, and
// `teabench compare` applies the claim rule to them.
var ungated = []Metric{
	layer("wall_s", "s", "lower"),
	layer("sim_instrs_per_s", "instr/s", "higher"),
	layer("latency_p50_ms", "ms", "lower"),
	layer("latency_tail_ms", "ms", "lower"),
	layer("rss_mb", "MB", "lower"),
	layer("peak_rss_mb", "MB", "lower"),
}

func layer(name, unit, better string) Metric {
	return Metric{Def: stat.Def{Name: name, Unit: unit, Better: better}, Layer: true}
}

func exact(name, unit, better string) Metric {
	m := layer(name, unit, better)
	m.Exact = true
	return m
}

// perLayer is measured by a traced run. A layer a workload does not exercise
// reads 0 there. README.md maps each to the end-to-end metric it should move.
var perLayer = func() []Metric {
	ms := append([]Metric(nil), ungated...)
	ms = append(ms,
		layer("engine.cells", "count", "lower"),
		layer("engine.memo_hits", "count", "higher"),
		layer("engine.cell_p50_ms", "ms", "lower"),
		layer("engine.cell_tail_ms", "ms", "lower"),
		layer("engine.idle_s", "s", "lower"),
		layer("engine.render_ms", "ms", "lower"),
		layer("sim.busy_s", "s", "lower"),
		layer("sim.host_ns_per_instr", "ns/instr", "lower"),
		layer("sim.host_ns_per_cycle", "ns/cycle", "lower"),
	)
	for _, l := range prof.Layers {
		ms = append(ms, layer(l+".cpu_s", "s", "lower"))
	}
	ms = append(ms,
		layer("runtime.mallocs", "count", "lower"),
		layer("runtime.gc_cycles", "count", "lower"),
		layer("runtime.gc_pause_ms", "ms", "lower"),
		exact("pipeline.sim_cycles", "cycles", "lower"),
		exact("pipeline.sim_instrs", "instr", "higher"),
		exact("bpred.mispredicts", "count", "lower"),
	)
	for _, k := range companionKinds {
		ms = append(ms,
			exact(k+".accuracy", "ratio", "higher"),
			exact(k+".coverage", "ratio", "higher"),
			exact(k+".extra_uop_pct", "%", "lower"),
		)
	}
	ms = append(ms,
		exact("model.tea_speedup_geomean_pct", "%", "higher"),
		exact("model.sim_ipc_geomean", "IPC", "higher"),
		layer("store.hits", "count", "higher"),
		layer("store.misses", "count", "lower"),
		layer("store.puts", "count", "lower"),
		layer("store.hit_ratio", "ratio", "higher"),
		layer("serve.simulations", "count", "lower"),
		layer("serve.coalesced", "count", "higher"),
		layer("serve.rejected", "count", "lower"),
		layer("serve.cold_p50_ms", "ms", "lower"),
		layer("serve.cold_tail_ms", "ms", "lower"),
		layer("serve.handler_hit_p50_ms", "ms", "lower"),
		layer("serve.cold_overhead_p50_ms", "ms", "lower"),
		layer("serve.conn_wait_tail_ms", "ms", "lower"),
		layer("gen.lag_tail_ms", "ms", "lower"),
		layer("serve.max_rps", "1/s", "higher"),
		layer("fabric.spawn_s", "s", "lower"),
		layer("fabric.cell_rtt_p50_ms", "ms", "lower"),
		layer("fabric.idle_s", "s", "lower"),
		layer("fabric.dispatched", "count", "lower"),
		layer("fabric.shards", "count", "lower"),
		layer("fabric.requeues", "count", "lower"),
		layer("fabric.worker_cpu_s", "s", "lower"),
		layer("fabric.worker_rss_mb", "MB", "lower"),
		layer("fabric.coord_cpu_s", "s", "lower"),
		layer("fabric.wall_1w_s", "s", "lower"),
		layer("fabric.scaling_eff", "ratio", "higher"),
		layer("trace.overhead_pct", "%", "lower"),
	)
	return ms
}()

// companionKinds are the shootout's companions, each with its own modelled
// accuracy, coverage and footprint.
var companionKinds = []string{"tea", "runahead", "bullseye", "ldbp", "twowin"}

// Metrics returns every metric the benchmark defines, end to end first.
func Metrics() []Metric { return append(append([]Metric(nil), endToEnd...), perLayer...) }

// Workload names one benchmark workload and why it was chosen.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists the four workloads in run order.
var Workloads = []Workload{
	{"zoo-shootout", "all 17 kernels x 6 companion kinds through one engine: per-cell set-up, every companion, the memo and the per-kind barriers"},
	{"core-long", "4 kernels on the baseline core, one worker, long cells: isolates the tick loop and bypasses companions, memo, store, HTTP and fabric"},
	{"serve-mix", "an in-process teasrvd on a fresh store: 90% store-hit fig8 requests beside cold fig6 pairs that simulate, coalesce and fsync"},
	{"fabric-scale", "the shootout matrix through teaworker processes at 1 then 2 workers: frames, shards, journal fsyncs and batch barriers"},
}

// RunSeconds is how long one run measures.
const RunSeconds = 20

// Schema renders BENCHMARK.json from the tables above.
func Schema() ([]byte, error) {
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []Workload `json:"workloads"`
		EndToEnd   []Metric   `json:"end_to_end"`
		PerLayer   []Metric   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, RunSeconds, Workloads, endToEnd, perLayer}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
