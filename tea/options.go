package tea

import (
	"context"
	"io"

	"teasim/tea/spec"
)

// ExpOptions scopes an experiment reproduction run. The zero value selects
// every default, so experiments accept a struct literal setting only what
// matters; DefaultExpOptions with functional options is the equivalent
// constructor form.
type ExpOptions struct {
	// MaxInstructions per workload per configuration (default 1M).
	MaxInstructions uint64
	// Scale selects workload input sizes (default 1 = paper-like).
	Scale int
	// Workloads restricts the suite (default: all).
	Workloads []string
	// Workers bounds the experiment engine's worker pool (0 = DefaultWorkers;
	// ignored when Engine is set).
	Workers int
	// Engine, when non-nil, dispatches this experiment's cells. Sharing one
	// engine across experiments shares its baseline memoization, so repeated
	// (workload, budget, scale) baselines simulate once.
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

	// Ctx cancels the experiment cooperatively (nil = context.Background()):
	// completed cells keep their results, in-flight cells finish, and the
	// experiment returns the context's error with whatever rows it built.
	Ctx context.Context
	// Partial degrades a failing cell to an annotated error row (Result.Err)
	// instead of aborting the experiment — quarantine semantics for long
	// suites where one corrupt cell should not cost the other results.
	Partial bool
	// Paranoia runs every cell with the per-cycle invariant checker
	// (Config.Paranoia): slower, never memoized, bit-identical results.
	Paranoia bool
}

// ExpOption mutates ExpOptions in DefaultExpOptions.
type ExpOption func(*ExpOptions)

// DefaultExpOptions returns the experiment defaults — 1M instructions per
// cell, paper-like input scale, the full suite — with opts applied on top:
//
//	rows, err := tea.Fig5(tea.DefaultExpOptions(tea.WithWorkloads("bfs", "xz")))
func DefaultExpOptions(opts ...ExpOption) ExpOptions {
	o := ExpOptions{
		MaxInstructions: 1_000_000,
		Scale:           1,
		Workloads:       Workloads(),
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithInstructions sets the per-cell instruction budget.
func WithInstructions(n uint64) ExpOption {
	return func(o *ExpOptions) { o.MaxInstructions = n }
}

// WithScale sets the workload input scale.
func WithScale(s int) ExpOption {
	return func(o *ExpOptions) { o.Scale = s }
}

// WithWorkloads restricts the suite to the named workloads.
func WithWorkloads(names ...string) ExpOption {
	return func(o *ExpOptions) { o.Workloads = names }
}

// WithWorkers bounds the worker pool (ignored with WithEngine).
func WithWorkers(n int) ExpOption {
	return func(o *ExpOptions) { o.Workers = n }
}

// WithEngine dispatches the experiment on an existing engine, sharing its
// baseline memoization.
func WithEngine(e *Engine) ExpOption {
	return func(o *ExpOptions) { o.Engine = e }
}

// WithIntervals samples a time series into every cell's Result.Intervals
// (period 0 = every 10k retired instructions).
func WithIntervals(period uint64) ExpOption {
	return func(o *ExpOptions) { o.Intervals = true; o.IntervalPeriod = period }
}

// WithTraceOut streams each cell's JSONL trace to the writer the factory
// returns for it.
func WithTraceOut(fn func(workload string, mode Mode) io.Writer) ExpOption {
	return func(o *ExpOptions) { o.TraceOut = fn }
}

// WithSpec supplies the machine point for the "custom" experiment.
func WithSpec(s *spec.MachineSpec) ExpOption {
	return func(o *ExpOptions) { o.Spec = s }
}

// WithSet adds dotted-path spec patches for the "custom" experiment.
func WithSet(patches ...string) ExpOption {
	return func(o *ExpOptions) { o.Set = append(o.Set, patches...) }
}

// WithContext cancels the experiment cooperatively through ctx.
func WithContext(ctx context.Context) ExpOption {
	return func(o *ExpOptions) { o.Ctx = ctx }
}

// WithPartial degrades failing cells to annotated error rows instead of
// aborting the experiment.
func WithPartial() ExpOption {
	return func(o *ExpOptions) { o.Partial = true }
}

// WithParanoia runs every cell with the per-cycle invariant checker.
func WithParanoia() ExpOption {
	return func(o *ExpOptions) { o.Paranoia = true }
}

// fill resolves defaults for the struct-literal path (DefaultExpOptions
// resolves everything but the engine up front; a literal may leave any
// field zero).
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
		o.Engine = NewEngine(o.Workers)
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

// ctx resolves the experiment's context (nil Ctx = context.Background()).
// Every experiment runner threads this value explicitly — context-first,
// like Run/RunContext — rather than re-reading the struct field.
func (o ExpOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
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
