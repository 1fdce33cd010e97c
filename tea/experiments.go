package tea

import (
	"context"
	"math"
)

// Geomean returns the geometric mean of xs (1.0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// SpeedupRow is one workload's outcome in a speedup experiment.
type SpeedupRow struct {
	Workload string
	Base     Result
	With     Result
	Speedup  float64
	// Err annotates a quarantined row (ExpOptions.Partial): one of the two
	// cells failed, so the speedup is meaningless and reports exclude the
	// row from aggregates.
	Err string `json:"Err,omitempty"`
}

// runSpeedups measures cycles(baseline)/cycles(mode) per workload. Every
// cell is an independent engine job; baselines come from the engine's memo
// cache when another experiment on the same engine already ran them. Like
// every runner it is context-first: ctx cancels the batch cooperatively.
func runSpeedups(ctx context.Context, o ExpOptions, mode Mode, modeCfg func(Config) Config) ([]SpeedupRow, error) {
	jobs := make([]Job, 0, 2*len(o.Workloads))
	for _, name := range o.Workloads {
		cfg := o.cfg(mode)
		if modeCfg != nil {
			cfg = modeCfg(cfg)
		}
		jobs = append(jobs, o.job(name, o.cfg(ModeBaseline)), o.job(name, cfg))
	}
	res, err := o.mapJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]SpeedupRow, 0, len(o.Workloads))
	for i, name := range o.Workloads {
		base, with := res[2*i], res[2*i+1]
		row := SpeedupRow{Workload: name, Base: base, With: with}
		switch {
		case base.Err != "":
			row.Err = base.Err
		case with.Err != "":
			row.Err = with.Err
		case with.Cycles > 0:
			row.Speedup = float64(base.Cycles) / float64(with.Cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runAll dispatches one run per workload under cfg and returns the results
// in workload order.
func runAll(ctx context.Context, o ExpOptions, cfg Config) ([]Result, error) {
	jobs := make([]Job, 0, len(o.Workloads))
	for _, name := range o.Workloads {
		jobs = append(jobs, o.job(name, cfg))
	}
	return o.mapJobs(ctx, jobs)
}

// Fig8Row pairs the TEA and Branch Runahead speedups for one workload.
type Fig8Row struct {
	Workload   string
	SimpleFlow bool
	TEA        float64
	Runahead   float64
	// Instructions counts the simulated instructions behind the row (the
	// shared baseline plus both modes) for benchmark alloc accounting; it
	// is not part of the rendered reports.
	Instructions uint64 `json:"-"`
	// Err annotates a quarantined row (ExpOptions.Partial).
	Err string `json:"Err,omitempty"`
}

// fig8 builds Fig. 8's rows: TEA vs Branch Runahead, with the paper's
// simple/complex control-flow split (paper: 10.1% vs 7.3% geomean). Both
// halves share one engine, so each workload's baseline is simulated once
// rather than once per mode.
func fig8(ctx context.Context, o ExpOptions) ([]Fig8Row, error) {
	teaRows, err := runSpeedups(ctx, o, ModeTEA, nil)
	if err != nil {
		return nil, err
	}
	brRows, err := runSpeedups(ctx, o, ModeBranchRunahead, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, 0, len(teaRows))
	for i := range teaRows {
		row := Fig8Row{
			Workload:   teaRows[i].Workload,
			SimpleFlow: SimpleFlow(teaRows[i].Workload),
			TEA:        teaRows[i].Speedup,
			Runahead:   brRows[i].Speedup,
			Instructions: teaRows[i].Base.Instructions +
				teaRows[i].With.Instructions + brRows[i].With.Instructions,
		}
		if teaRows[i].Err != "" {
			row.Err = teaRows[i].Err
		} else if brRows[i].Err != "" {
			row.Err = brRows[i].Err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Config identifies one bar group of Fig. 10.
type Fig10Config struct {
	Name string
	Cfg  func(Config) Config
	Mode Mode
}

// Fig10Configs returns the five thread-construction configurations compared
// in Fig. 10: full TEA, only-loops, no-masks, no-mem, and Branch Runahead.
// Each ablation is one spec patch on the TEA preset.
func Fig10Configs() []Fig10Config {
	id := func(c Config) Config { return c }
	return []Fig10Config{
		{Name: "tea", Mode: ModeTEA, Cfg: id},
		{Name: "onlyloops", Mode: ModeTEA, Cfg: withPatch("companion.tea.only_loops=true")},
		{Name: "nomasks", Mode: ModeTEA, Cfg: withPatch("companion.tea.no_masks=true")},
		{Name: "nomem", Mode: ModeTEA, Cfg: withPatch("companion.tea.no_mem=true")},
		{Name: "runahead", Mode: ModeBranchRunahead, Cfg: id},
	}
}

// withPatch returns a Config edit that puts patch ahead of the config's own
// Set patches, in a fresh slice so configs never share a backing array.
func withPatch(patch string) func(Config) Config {
	return func(c Config) Config {
		c.Set = append([]string{patch}, c.Set...)
		return c
	}
}

// Fig10Row is one workload × configuration cell of Fig. 10: precomputation
// accuracy (a), misprediction coverage (b), and cycles saved per covered
// branch (c).
type Fig10Row struct {
	Workload string
	Config   string
	Accuracy float64
	Coverage float64
	Saved    float64
	// Instructions is the cell's simulated instruction count for benchmark
	// alloc accounting; not part of the rendered reports.
	Instructions uint64 `json:"-"`
	// Err annotates a quarantined cell (ExpOptions.Partial).
	Err string `json:"Err,omitempty"`
}

// fig10 builds Fig. 10's rows (accuracy, coverage, timeliness ablations).
// The whole configuration × workload matrix is dispatched as one batch so
// every cell can run in parallel.
func fig10(ctx context.Context, o ExpOptions) ([]Fig10Row, error) {
	fcs := Fig10Configs()
	jobs := make([]Job, 0, len(fcs)*len(o.Workloads))
	for _, fc := range fcs {
		for _, name := range o.Workloads {
			jobs = append(jobs, o.job(name, fc.Cfg(o.cfg(fc.Mode))))
		}
	}
	res, err := o.mapJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig10Row, 0, len(jobs))
	for i, fc := range fcs {
		for j, name := range o.Workloads {
			r := res[i*len(o.Workloads)+j]
			rows = append(rows, Fig10Row{
				Workload:     name,
				Config:       fc.Name,
				Accuracy:     r.Accuracy,
				Coverage:     r.Coverage,
				Saved:        r.AvgCyclesSaved,
				Instructions: r.Instructions,
				Err:          r.Err,
			})
		}
	}
	return rows, nil
}

// custom measures a user-supplied machine point against the baseline, per
// workload: o.Spec (nil = the baseline preset) with o.Set patches applied on
// top, resolved and validated once up front so a bad -config or -set fails
// before any simulation. This is the experiment behind `teaexp -config` /
// `teaexp -set`.
func custom(ctx context.Context, o ExpOptions) ([]SpeedupRow, error) {
	resolved, err := (Config{Spec: o.Spec, Set: o.Set}).ResolvedSpec()
	if err != nil {
		return nil, err
	}
	return runSpeedups(ctx, o, ModeBaseline, func(c Config) Config {
		c.Spec = &resolved
		return c
	})
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
