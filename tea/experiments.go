package tea

import (
	"context"
	"math"

	"teasim/tea/spec"
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

// Fig5 reproduces Fig. 5: per-benchmark performance of the on-core TEA
// thread over the baseline (paper geomean: +10.1%).
func Fig5(o ExpOptions) ([]SpeedupRow, error) {
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeTEA, nil)
}

// Fig6 reproduces Fig. 6: total branch MPKI per benchmark on the baseline.
func Fig6(o ExpOptions) ([]Result, error) {
	o = o.fill()
	return runAll(o.ctx(), o, o.cfg(ModeBaseline))
}

// Fig7 reproduces Fig. 7: the breakdown of retired mispredictions into
// covered / late / incorrect / uncovered under the TEA thread.
func Fig7(o ExpOptions) ([]Result, error) {
	o = o.fill()
	return runAll(o.ctx(), o, o.cfg(ModeTEA))
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

// Fig8 reproduces Fig. 8: TEA vs Branch Runahead, with the paper's
// simple/complex control-flow split (paper: 10.1% vs 7.3% geomean). Both
// halves share one engine, so each workload's baseline is simulated once
// rather than once per mode.
func Fig8(o ExpOptions) ([]Fig8Row, error) {
	o = o.fill()
	ctx := o.ctx()
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

// Fig9 reproduces Fig. 9: the TEA thread on a dedicated execution engine
// (paper: 12.3% vs 10.1% on-core).
func Fig9(o ExpOptions) ([]SpeedupRow, error) {
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeTEADedicated, nil)
}

// Fig9Big reproduces §V-D's second data point: the TEA thread on an
// execution engine as large as the main core's backend (paper: +12.8%,
// "very little additional benefit" over the 16-unit engine).
func Fig9Big(o ExpOptions) ([]SpeedupRow, error) {
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeTEABigEngine, nil)
}

// Wide16 reproduces §IV-H's comparison point: a true 16-wide frontend
// without precomputation (paper: ~+2.8% for ~10% more area, versus the TEA
// thread's +10.1% for ~3.5%).
func Wide16(o ExpOptions) ([]SpeedupRow, error) {
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeWide16, nil)
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

// Fig10 reproduces Fig. 10 (accuracy, coverage, timeliness ablations). The
// whole configuration × workload matrix is dispatched as one batch so every
// cell can run in parallel.
func Fig10(o ExpOptions) ([]Fig10Row, error) {
	o = o.fill()
	fcs := Fig10Configs()
	jobs := make([]Job, 0, len(fcs)*len(o.Workloads))
	for _, fc := range fcs {
		for _, name := range o.Workloads {
			jobs = append(jobs, o.job(name, fc.Cfg(o.cfg(fc.Mode))))
		}
	}
	res, err := o.mapJobs(o.ctx(), jobs)
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

// Table3 reproduces Table III: the extra dynamic uop footprint of the TEA
// thread per benchmark (paper average: +31.9%).
func Table3(o ExpOptions) ([]Result, error) {
	return Fig7(o) // the same runs carry UopOverheadPct
}

// PrefetchOnly reproduces the §V-B aside: TEA with early resolution
// disabled, isolating the data-prefetch side effect (paper: +1.2% overall).
func PrefetchOnly(o ExpOptions) ([]SpeedupRow, error) {
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeTEA, withPatch("companion.tea.disable_early_flush=true"))
}

// Custom measures a user-supplied machine point against the baseline, per
// workload: the spec (nil = the baseline preset) with patches applied on
// top, resolved and validated once up front so a bad -config or -set fails
// before any simulation. This is the experiment behind `teaexp -config` /
// `teaexp -set`.
func Custom(machine *spec.MachineSpec, patches []string, o ExpOptions) ([]SpeedupRow, error) {
	resolved, err := (Config{Spec: machine, Set: patches}).ResolvedSpec()
	if err != nil {
		return nil, err
	}
	o = o.fill()
	return runSpeedups(o.ctx(), o, ModeBaseline, func(c Config) Config {
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
