package tea

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"teasim/internal/workloads"
)

// Experiment is one named entry of the experiment catalog: a runner plus the
// metadata clients use to pick it. The catalog is the only way to run an
// experiment: every one takes the same inputs (ExpOptions) and produces the
// same output shape (*Report), so callers — teaexp, the serve daemon, tests
// — dispatch purely by name, and new experiments (companion shootouts,
// generated-workload sweeps) become catalog entries rather than new CLI
// switch arms.
type Experiment struct {
	// Name is the dispatch key ("fig5", "sens-blockcache", ...).
	Name string
	// Title is the rendered report's title line.
	Title string
	// Description is a one-line human summary for catalog listings.
	Description string
	// Run executes the experiment on options whose defaults RunExperiment
	// has filled. It must honor ctx for cooperative cancellation and return
	// a Report built from the options' rows.
	Run func(ctx context.Context, o ExpOptions) (*Report, error)
}

// registry holds the experiment catalog. Registration happens at package
// init (the built-in figures) and from extension packages; the lock exists
// for the latter.
var registry = struct {
	sync.Mutex
	byName map[string]Experiment
	order  []string
}{byName: map[string]Experiment{}}

// RegisterExperiment adds an experiment to the catalog. Registering a name
// twice panics: silently replacing a figure would redefine what every client
// of that name gets.
func RegisterExperiment(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("tea: RegisterExperiment needs a name and a runner")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[e.Name]; dup {
		panic("tea: experiment " + e.Name + " registered twice")
	}
	registry.byName[e.Name] = e
	registry.order = append(registry.order, e.Name)
}

// Experiments returns the catalog in registration order (the built-in
// figures first, in paper order).
func Experiments() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// ExperimentNames returns the sorted dispatch keys, for error messages and
// flag docs.
func ExperimentNames() []string {
	registry.Lock()
	defer registry.Unlock()
	names := append([]string(nil), registry.order...)
	sort.Strings(names)
	return names
}

// LookupExperiment finds a catalog entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// RunExperiment dispatches one experiment by name: it fills the options'
// defaults once and hands ctx straight to the experiment's runner. ctx
// cancels the experiment cooperatively: completed cells keep their results,
// in-flight cells finish, and the context's error comes back.
func RunExperiment(ctx context.Context, name string, o ExpOptions) (*Report, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("tea: unknown experiment %q (see tea.Experiments)", name)
	}
	if err := workloads.CheckUnique(o.Workloads); err != nil {
		return nil, fmt.Errorf("tea: %w", err)
	}
	return e.Run(ctx, o.fill())
}

// rowsExp adapts a row builder and the report builder of its rows to the
// registry's runner shape.
func rowsExp[R any](rows func(context.Context, ExpOptions) (R, error), rep func(R) report) func(context.Context, ExpOptions) (*Report, error) {
	return func(ctx context.Context, o ExpOptions) (*Report, error) {
		r, err := rows(ctx, o)
		if err != nil {
			return nil, err
		}
		return &Report{rep(r)}, nil
	}
}

// speedupExp is the catalog entry of a speedup experiment: every workload
// under mode (edited by modeCfg, if set) against its baseline.
func speedupExp(name, title, desc string, mode Mode, modeCfg func(Config) Config) Experiment {
	return Experiment{
		Name: name, Title: title, Description: desc,
		Run: rowsExp(func(ctx context.Context, o ExpOptions) ([]SpeedupRow, error) {
			return runSpeedups(ctx, o, mode, modeCfg)
		}, func(rows []SpeedupRow) report { return speedupsReport(title, rows) }),
	}
}

// resultExp is the catalog entry of an experiment that runs every workload
// once under mode.
func resultExp(name, title, desc string, mode Mode, rep func([]Result) report) Experiment {
	return Experiment{
		Name: name, Title: title, Description: desc,
		Run: rowsExp(func(ctx context.Context, o ExpOptions) ([]Result, error) {
			return runAll(ctx, o, o.cfg(mode))
		}, rep),
	}
}

// sensExp is the catalog entry of one sensitivity sweep over SensDefaults.
func sensExp(p SensParam) Experiment {
	return Experiment{
		Name:        "sens-" + string(p),
		Title:       fmt.Sprintf("Sensitivity: %s", p),
		Description: fmt.Sprintf("structure-size sensitivity sweep over %s", p),
		Run: rowsExp(func(ctx context.Context, o ExpOptions) ([]SensRow, error) {
			return sensitivity(ctx, p, SensDefaults(p), o)
		}, func(rows []SensRow) report { return sensitivityReport(p, rows) }),
	}
}

const titleCustom = "Custom machine point vs baseline"

func init() {
	for _, e := range []Experiment{
		speedupExp("fig5", "Fig 5: TEA thread speedup over baseline (paper geomean +10.1%)",
			"per-benchmark TEA-thread speedup over the baseline core", ModeTEA, nil),
		resultExp("fig6", "Fig 6: branch MPKI (baseline)",
			"total branch MPKI per benchmark on the baseline", ModeBaseline, fig6Report),
		resultExp("fig7", "Fig 7: misprediction breakdown under TEA",
			"retired mispredictions split into covered/late/incorrect/uncovered", ModeTEA, fig7Report),
		{
			Name: "fig8", Title: "Fig 8: TEA vs Branch Runahead",
			Description: "TEA vs Branch Runahead with the simple/complex control-flow split",
			Run:         rowsExp(fig8, fig8Report),
		},
		speedupExp("fig9", "Fig 9: TEA on a dedicated execution engine (paper geomean +12.3%)",
			"TEA thread on a dedicated 16-unit execution engine", ModeTEADedicated, nil),
		// §V-D's second data point: "very little additional benefit" over
		// the 16-unit engine.
		speedupExp("fig9big", "§V-D: TEA on a main-core-sized engine (paper geomean +12.8%)",
			"TEA thread on an engine as large as the main core's backend", ModeTEABigEngine, nil),
		// §IV-H: ~+2.8% for ~10% more area, versus the TEA thread's +10.1%
		// for ~3.5%.
		speedupExp("wide16", "§IV-H: 16-wide frontend, no precomputation (paper ~+2.8%)",
			"16-wide frontend baseline without precomputation", ModeWide16, nil),
		{
			Name: "fig10", Title: "Fig 10: thread-construction ablations",
			Description: "accuracy/coverage/timeliness across thread-construction ablations",
			Run:         rowsExp(fig10, fig10Report),
		},
		// Table III reads UopOverheadPct off the same cells as Fig 7.
		resultExp("table3", "Table III: extra dynamic uops fetched by the TEA thread",
			"extra dynamic uop footprint of the TEA thread per benchmark", ModeTEA, table3Report),
		speedupExp("prefetchonly", "§V-B aside: early resolution disabled (prefetch effect only; paper +1.2%)",
			"TEA with early resolution disabled (data-prefetch effect only)",
			ModeTEA, withPatch("companion.tea.disable_early_flush=true")),
		{
			Name: "custom", Title: titleCustom,
			Description: "a user-supplied machine point (ExpOptions.Spec + Set patches) vs the baseline",
			Run: rowsExp(custom, func(rows []SpeedupRow) report {
				return speedupsReport(titleCustom, rows)
			}),
		},
		sensExp(SensBlockCache),
		sensExp(SensFillBuffer),
		sensExp(SensH2PDecay),
		sensExp(SensLead),
		sensExp(SensFetchQueue),
	} {
		RegisterExperiment(e)
	}
}
