// Package tea is the public API of the TEA branch-precomputation
// reproduction: it runs the paper's benchmark suite on the baseline
// out-of-order core with the TEA thread, the Branch Runahead comparison
// baseline, or no precomputation at all, and reports the metrics behind
// every table and figure in the paper's evaluation (§V).
//
// Quick start:
//
//	res, err := tea.Run("bfs", tea.Config{Mode: tea.ModeTEA})
//	fmt.Printf("IPC %.2f, coverage %.0f%%\n", res.IPC, 100*res.Coverage)
//
// Compare against the baseline core:
//
//	base, _ := tea.Run("bfs", tea.Config{Mode: tea.ModeBaseline})
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles)/float64(res.Cycles))
//
// Every run simulates one declarative machine point (tea/spec): the Mode
// names a registered preset, Config.Spec substitutes a custom spec, and
// Config.Set patches individual fields ("companion.tea.fill_buf_size=1024").
// See Config.ResolvedSpec for the resolution order.
package tea

import (
	"context"
	"fmt"
	"io"
	"math"

	"teasim/internal/companion"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/internal/telemetry"
	"teasim/internal/workloads"
	"teasim/tea/spec"
)

// Config controls one simulation run.
type Config struct {
	// Mode names the registered preset to simulate (spec.Presets; the zero
	// Mode is "baseline"). With a Spec it no longer picks the machine, but
	// it still keys the run's memo entry (MemoKey).
	Mode Mode

	// Spec, when non-nil, replaces the Mode's preset with a custom machine
	// point (tea/spec). The spec is cloned before resolution, so callers may
	// reuse one spec across runs.
	Spec *spec.MachineSpec
	// Set holds dotted-path spec patches ("section.field=value", see
	// spec.MachineSpec.Set) applied in order. They are the only way to edit
	// a machine point: the Fig. 10 ablations are
	// "companion.tea.only_loops=true" and its siblings, the sensitivity
	// sweeps patch one structure size each (SensParam.Patch).
	Set []string

	// MaxInstructions bounds the simulated region (0 = run to completion).
	// The experiment harness default is 1M instructions per workload.
	MaxInstructions uint64
	// Scale selects the workload input size (0 = tiny/test, 1 = default).
	Scale int
	// CoSim verifies every retired instruction against the golden
	// functional model (slower; on by default in tests).
	CoSim bool
	// DisableIdleSkip turns off the pipeline's idle-cycle fast-forward
	// (pipeline.Config.NoIdleSkip), ticking every cycle individually.
	// Results are bit-identical either way — skipping is cycle-exact — so
	// this exists for debugging and the skip equivalence test. Every other
	// hot-path mechanism has one implementation, pinned by the golden
	// corpus (testdata/corpus.jsonl).
	DisableIdleSkip bool

	// Observability (see DESIGN.md "Telemetry"). These fields are purely
	// observational: a run with telemetry attached retires the same
	// instructions in the same cycles as one without. Runs with any of them
	// set are never memoized by an Engine (see Config.Observational).
	//
	// Intervals samples a per-interval time series (IPC, MPKI, flush rate,
	// TEA coverage/accuracy, Block Cache hit rate, Fill Buffer occupancy)
	// into Result.Intervals every IntervalPeriod retired instructions
	// (0 = every 10k). TraceTo, when non-nil, streams JSONL trace events —
	// retirements and flushes inside the [TraceStart, TraceEnd] cycle
	// window (TraceEnd 0 = unbounded) — plus the interval samples.
	Intervals      bool
	IntervalPeriod uint64
	TraceTo        io.Writer
	TraceStart     uint64
	TraceEnd       uint64

	// Paranoia enables per-cycle invariant checking inside the pipeline and
	// the TEA companion structures (DESIGN.md "Failure handling"): ROB age
	// ordering, physical-register conservation, scheduler/scoreboard
	// consistency, completion accounting, and Block Cache mask monotonicity.
	// A paranoid run produces bit-identical results — the checker only reads
	// — but is much slower and panics at the first violated invariant, so it
	// exists for CI and debugging. Paranoid runs are never memoized: the
	// caller wants the checking, not just the numbers.
	Paranoia bool
	// Heartbeat, when non-nil, receives a progress beat every runQuantum
	// simulated cycles (and at every telemetry interval sample), letting a
	// watchdog on another goroutine distinguish a slow run from a wedged one.
	// The engine's hang watchdog (JobPolicy.HangTimeout) installs its own;
	// set this only when driving RunContext directly.
	Heartbeat *telemetry.Heartbeat
}

// Observational reports whether the run carries observation-only
// attachments (telemetry intervals or a trace stream). Observational runs
// produce bit-identical simulation results but are never memoized, so the
// observation always happens.
func (c Config) Observational() bool {
	return c.Intervals || c.IntervalPeriod != 0 || c.TraceTo != nil ||
		c.TraceStart != 0 || c.TraceEnd != 0
}

// Memoizable reports whether an Engine may serve this run from its result
// cache: the run must not be observational (the caller wants the
// observation, not just the numbers), must not co-simulate or check
// invariants (the caller wants the checking), and must not tick every
// cycle (the point of such a run is exercising the plain tick loop).
// Memoizable runs are keyed by (workload, mode, spec fingerprint, budget,
// scale) — see Engine.
func (c Config) Memoizable() bool {
	return !c.Observational() && !c.CoSim && !c.DisableIdleSkip && !c.Paranoia
}

// Result reports one run's performance and precomputation metrics. It
// marshals to JSON with snake_case keys, so results can be piped straight
// into plotting scripts.
type Result struct {
	Workload string `json:"workload"`
	// Mode labels the machine: the preset the Config named, or for a custom
	// spec its companion kind ("baseline" for none).
	Mode Mode `json:"mode"`
	// SpecHash is the resolved machine spec's fingerprint (hex), tying the
	// result to the exact machine point that produced it.
	SpecHash string `json:"spec_hash,omitempty"`

	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	// Branch behaviour (Fig. 6): mispredictions counted against the
	// original branch-predictor decision.
	MPKI            float64 `json:"mpki"`
	CondMispredicts uint64  `json:"cond_mispredicts"`
	IndMispredicts  uint64  `json:"ind_mispredicts"`

	// Precomputation quality (Figs. 7 and 10). Coverage buckets partition
	// the retired mispredictions.
	Accuracy       float64 `json:"accuracy"` // correct precomputations / precomputations
	Coverage       float64 `json:"coverage"` // covered / all retired mispredictions
	Covered        uint64  `json:"covered"`
	Late           uint64  `json:"late"`
	Incorrect      uint64  `json:"incorrect"`
	Uncovered      uint64  `json:"uncovered"`
	AvgCyclesSaved float64 `json:"avg_cycles_saved"` // per covered misprediction (Fig. 10c)
	EarlyFlushes   uint64  `json:"early_flushes"`

	// Footprint (Table III): extra dynamic uops fetched for precomputation,
	// as a percentage of main-thread fetched uops.
	UopOverheadPct float64 `json:"uop_overhead_pct"`

	// Intervals holds the per-interval time series when Config.Intervals
	// was set (nil otherwise).
	Intervals []IntervalSample `json:"intervals,omitempty"`

	// Err annotates a cell that failed under quarantine semantics
	// (Engine.MapPartial / teaexp -partial): the first line of the job's
	// error, with every metric zero. Empty for successful runs, so existing
	// goldens and JSON consumers are unaffected.
	Err string `json:"error,omitempty"`
}

// IntervalSample is one point of a run's time series, sampled every
// Config.IntervalPeriod retired instructions. Rate fields are computed over
// the interval (deltas), not cumulatively, so plotting them directly shows
// the per-phase behavior that end-of-run aggregates hide.
type IntervalSample struct {
	Index   int    `json:"index"`
	Cycle   uint64 `json:"cycle"`   // cycle count at the sample point
	Retired uint64 `json:"retired"` // cumulative retired instructions

	Cycles       uint64  `json:"cycles"`       // cycles in this interval
	Instructions uint64  `json:"instructions"` // instructions in this interval
	IPC          float64 `json:"ipc"`
	MPKI         float64 `json:"mpki"`
	Flushes      uint64  `json:"flushes"`
	EarlyFlushes uint64  `json:"early_flushes"`

	// Companion (TEA / Branch Runahead) metrics; zero without one.
	Coverage          float64 `json:"coverage"`
	Accuracy          float64 `json:"accuracy"`
	BlockCacheHitRate float64 `json:"block_cache_hit_rate"`
	FillBufOccupancy  int     `json:"fill_buf_occupancy"`

	// Metrics carries every registered internal metric at the sample point
	// (cumulative values; see DESIGN.md for the name catalogue).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Workloads returns the names of the 17-benchmark suite in report order.
func Workloads() []string {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return names
}

// SimpleFlow reports whether the workload is in the paper's "simple control
// flow" class (§V-C: the GAP kernels and xz).
func SimpleFlow(name string) bool {
	w, ok := workloads.ByName(name)
	return ok && w.Flow == workloads.Simple
}

// Run simulates one workload under the given configuration.
func Run(workload string, cfg Config) (Result, error) {
	return RunContext(context.Background(), workload, cfg)
}

// runQuantum is the cycle distance between cancellation checks in
// RunContext: small enough that cancellation lands within a few hundred
// microseconds of wall time, large enough to keep the check out of the
// per-cycle loop's profile.
const runQuantum = 50_000

// RunContext is Run with cooperative cancellation: the simulation checks
// ctx every runQuantum simulated cycles and returns ctx.Err() promptly once
// the context is done. A cancelled context returns before any simulation
// work. Results from cancelled runs are zero; cancellation is not an error
// of the simulation itself.
func RunContext(ctx context.Context, workload string, cfg Config) (Result, error) {
	// Programs are shared read-only with every other cell of the process:
	// pipeline.New copies Data into the core's own memory image (DESIGN.md
	// §17).
	return runContext(ctx, workload, cfg, workloads.Workload.Shared)
}

// runContext is RunContext with the program source as a parameter, so
// tests can run a cell on a freshly built program.
func runContext(ctx context.Context, workload string, cfg Config,
	program func(workloads.Workload, int) *isa.Program) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		return Result{}, fmt.Errorf("tea: unknown workload %q (see tea.Workloads)", workload)
	}
	machine, fp, err := cfg.resolve()
	if err != nil {
		return Result{}, err
	}
	mode := cfg.label(machine)
	prog := program(w, cfg.Scale)

	pcfg := pipeline.ConfigFromSpec(machine)
	pcfg.CoSim = cfg.CoSim
	pcfg.NoIdleSkip = cfg.DisableIdleSkip
	pcfg.MaxInstructions = cfg.MaxInstructions
	pcfg.MaxCycles = 400_000_000
	pcfg.Paranoia = cfg.Paranoia
	pcfg.Heartbeat = cfg.Heartbeat

	// Telemetry: an interval-collecting ring and/or a JSONL event stream.
	var ring *telemetry.RingSink
	if cfg.Intervals || cfg.TraceTo != nil {
		var sinks []telemetry.Sink
		if cfg.Intervals {
			ring = telemetry.NewRing(0) // intervals only, no event retention
			sinks = append(sinks, ring)
		}
		if cfg.TraceTo != nil {
			sinks = append(sinks, telemetry.NewJSONL(cfg.TraceTo))
		}
		tcfg := telemetry.Config{
			Sink:           telemetry.Multi(sinks...),
			IntervalPeriod: cfg.IntervalPeriod,
			TraceStart:     cfg.TraceStart,
			TraceEnd:       cfg.TraceEnd,
			Heartbeat:      cfg.Heartbeat,
		}
		if cfg.TraceTo == nil {
			// Intervals without a trace stream: push the trace window past
			// any reachable cycle so no per-retire events are built.
			tcfg.TraceStart = math.MaxUint64
		}
		pcfg.Telemetry = telemetry.NewCollector(tcfg)
	}

	c := pipeline.New(pcfg, prog)

	// Build whatever companion the spec names through the factory registry
	// (tea/companions.go links every known companion package).
	inst, err := companion.New(machine, c, companion.Options{Paranoia: cfg.Paranoia})
	if err != nil {
		return Result{}, fmt.Errorf("tea: %s/%s: %w", workload, mode, err)
	}

	var runErr error
	if ctx.Done() == nil && cfg.Heartbeat == nil {
		runErr = c.Run()
	} else {
		runErr = c.RunChecked(runQuantum, func() error { return ctx.Err() })
	}
	if pcfg.Telemetry != nil {
		if cerr := pcfg.Telemetry.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("telemetry sink: %w", cerr)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{}, fmt.Errorf("tea: %s/%s: %w", workload, mode, runErr)
	}

	res := Result{
		Workload:        workload,
		Mode:            mode,
		SpecHash:        Fingerprint(fp).String(),
		Cycles:          c.Stats.Cycles,
		Instructions:    c.Stats.Retired,
		IPC:             c.Stats.IPC(),
		MPKI:            c.Stats.MPKI(),
		CondMispredicts: c.Stats.CondMispredicts,
		IndMispredicts:  c.Stats.IndMispredicts,
		Accuracy:        1,
	}
	if inst != nil {
		m := inst.Metrics()
		res.Accuracy = m.Accuracy
		res.Coverage = m.Coverage
		res.Covered = m.Covered
		res.Late = m.Late
		res.Incorrect = m.Incorrect
		res.Uncovered = m.Uncovered
		res.AvgCyclesSaved = m.AvgCyclesSaved
		res.EarlyFlushes = m.EarlyFlushes
		if c.Stats.FetchedUops > 0 {
			res.UopOverheadPct = 100 * float64(m.ExtraUops) / float64(c.Stats.FetchedUops)
		}
	}
	if ring != nil {
		ivs := ring.Intervals()
		res.Intervals = make([]IntervalSample, len(ivs))
		for i, iv := range ivs {
			s := IntervalSample{
				Index:             iv.Index,
				Cycle:             iv.Cycle,
				Retired:           iv.Retired,
				Cycles:            iv.Cycles,
				Instructions:      iv.Instructions,
				IPC:               iv.IPC,
				MPKI:              iv.MPKI,
				Flushes:           iv.Flushes,
				EarlyFlushes:      iv.EarlyFlushes,
				Coverage:          iv.Coverage,
				Accuracy:          iv.Accuracy,
				BlockCacheHitRate: iv.BlockCacheHitRate,
				FillBufOccupancy:  iv.FillBufOccupancy,
			}
			if len(iv.Metrics) > 0 {
				s.Metrics = make(map[string]float64, len(iv.Metrics))
				for _, m := range iv.Metrics {
					s.Metrics[m.Name] = m.Value
				}
			}
			res.Intervals[i] = s
		}
	}
	return res, nil
}
