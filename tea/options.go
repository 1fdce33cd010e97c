package tea

import (
	"context"
	"io"

	"teasim/tea/spec"
)

// ExpOptions scopes an experiment reproduction run (see RunExperiment). The
// zero value selects every default, so callers set only what matters.
type ExpOptions struct {
	// MaxInstructions per workload per configuration (default 1M).
	MaxInstructions uint64
	// Scale selects workload input sizes (default 1 = paper-like).
	Scale int
	// Workloads restricts the suite (default: all).
	Workloads []string
	// Engine, when non-nil, dispatches this experiment's cells (nil = a
	// fresh NewEngine(0)). Sharing one engine across experiments shares its
	// baseline memoization, so repeated (workload, budget, scale) baselines
	// simulate once.
	Engine *Engine

	// Intervals samples a per-interval time series into every cell's
	// Result.Intervals (see Config.Intervals). Cells carrying telemetry are
	// never memoized, so interval-bearing experiments re-simulate their
	// baselines.
	Intervals bool
	// IntervalPeriod is the sample period in retired instructions
	// (0 = every 10k).
	IntervalPeriod uint64
	// TraceOut, when non-nil, supplies a JSONL trace destination for each
	// cell (nil return = no trace for that cell). Cells run concurrently, so
	// the factory must hand every cell its own writer.
	TraceOut func(workload string, mode Mode) io.Writer

	// Spec supplies the machine point for the "custom" experiment (nil = the
	// baseline preset); other experiments derive their machines from their
	// modes and ignore it.
	Spec *spec.MachineSpec
	// Set holds dotted-path spec patches for the "custom" experiment, applied
	// on top of Spec (see Config.Set).
	Set []string

	// Partial degrades a failing cell to an annotated error row (Result.Err)
	// instead of aborting the experiment — quarantine semantics for long
	// suites where one corrupt cell should not cost the other results.
	Partial bool
	// Paranoia runs every cell with the per-cycle invariant checker
	// (Config.Paranoia): slower, never memoized, bit-identical results.
	Paranoia bool
}

// fill resolves the defaults of every zero field. RunExperiment calls it
// once, so row builders receive complete options.
func (o ExpOptions) fill() ExpOptions {
	if o.MaxInstructions == 0 {
		o.MaxInstructions = 1_000_000
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads()
	}
	if o.Engine == nil {
		o.Engine = NewEngine(0)
	}
	return o
}

// cfg builds one cell's simulation config.
func (o ExpOptions) cfg(mode Mode) Config {
	c := Config{Mode: mode, MaxInstructions: o.MaxInstructions, Scale: o.Scale, Paranoia: o.Paranoia}
	if o.Intervals {
		c.Intervals = true
		c.IntervalPeriod = o.IntervalPeriod
	}
	return c
}

// job builds one engine job, attaching the cell's trace destination.
func (o ExpOptions) job(name string, cfg Config) Job {
	if o.TraceOut != nil {
		cfg.TraceTo = o.TraceOut(name, cfg.Mode)
	}
	return Job{name, cfg}
}

// mapJobs dispatches an experiment's jobs under ctx and the options' failure
// semantics. Without Partial it behaves exactly like Engine.Map: the first
// (lowest-index) failure aborts with an error. With Partial, failing cells
// come back as zero Results annotated with Err, so the experiment still
// renders every healthy row; only context cancellation is an error.
func (o ExpOptions) mapJobs(ctx context.Context, jobs []Job) ([]Result, error) {
	if !o.Partial {
		return o.Engine.MapContext(ctx, jobs)
	}
	results, errs, err := o.Engine.MapPartial(ctx, jobs)
	if err != nil {
		return results, err
	}
	for i, jerr := range errs {
		if jerr != nil {
			results[i] = Result{
				Workload: jobs[i].Workload,
				Mode:     jobs[i].Cfg.Mode,
				Err:      firstLine(jerr.Error()),
			}
		}
	}
	return results, nil
}
