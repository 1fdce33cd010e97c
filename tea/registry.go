package tea

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"teasim/internal/workloads"
)

// Experiment is one named entry of the experiment catalog: a runner plus the
// metadata clients use to pick it. Every experiment takes the same inputs
// (ExpOptions) and produces the same output shape (*Report), so callers —
// teaexp, the serve daemon, tests — dispatch purely by name instead of
// hard-coding Fig* function calls, and new experiments (companion shootouts,
// generated-workload sweeps) become catalog entries rather than new CLI
// switch arms.
type Experiment struct {
	// Name is the dispatch key ("fig5", "sens-blockcache", ...).
	Name string
	// Title is the rendered report's title line.
	Title string
	// Description is a one-line human summary for catalog listings.
	Description string
	// Run executes the experiment. It must honor ctx for cooperative
	// cancellation and return a Report built from the options' rows.
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

// RunExperiment dispatches one experiment by name. ctx overrides o.Ctx (nil
// = keep o.Ctx); the options otherwise scope the run exactly as they do for
// the direct Fig* calls, so a report built here is byte-identical to one
// rendered from the equivalent direct call.
func RunExperiment(ctx context.Context, name string, o ExpOptions) (*Report, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("tea: unknown experiment %q (see tea.Experiments)", name)
	}
	if err := workloads.CheckUnique(o.Workloads); err != nil {
		return nil, fmt.Errorf("tea: %w", err)
	}
	if ctx != nil {
		o.Ctx = ctx
	}
	return e.Run(o.ctx(), o)
}

// Report titles for the speedup-style experiments (shared by teaexp and the
// registry so the CLI and the daemon render identical bytes).
const (
	titleFig5         = "Fig 5: TEA thread speedup over baseline (paper geomean +10.1%)"
	titleFig9         = "Fig 9: TEA on a dedicated execution engine (paper geomean +12.3%)"
	titleFig9Big      = "§V-D: TEA on a main-core-sized engine (paper geomean +12.8%)"
	titleWide16       = "§IV-H: 16-wide frontend, no precomputation (paper ~+2.8%)"
	titlePrefetchOnly = "§V-B aside: early resolution disabled (prefetch effect only; paper +1.2%)"
	titleCustom       = "Custom machine point vs baseline"
)

// speedupExp adapts a speedup-row experiment to the registry's runner shape.
func speedupExp(title string, run func(ExpOptions) ([]SpeedupRow, error)) func(context.Context, ExpOptions) (*Report, error) {
	return func(ctx context.Context, o ExpOptions) (*Report, error) {
		o.Ctx = ctx
		rows, err := run(o)
		if err != nil {
			return nil, err
		}
		return &Report{speedupsReport(title, rows)}, nil
	}
}

// resultExp adapts a Result-row experiment to the registry's runner shape.
func resultExp(rep func([]Result) report, run func(ExpOptions) ([]Result, error)) func(context.Context, ExpOptions) (*Report, error) {
	return func(ctx context.Context, o ExpOptions) (*Report, error) {
		o.Ctx = ctx
		rows, err := run(o)
		if err != nil {
			return nil, err
		}
		return &Report{rep(rows)}, nil
	}
}

// sensExp adapts one sensitivity sweep to the registry's runner shape.
func sensExp(p SensParam) Experiment {
	return Experiment{
		Name:        "sens-" + string(p),
		Title:       fmt.Sprintf("Sensitivity: %s", p),
		Description: fmt.Sprintf("structure-size sensitivity sweep over %s", p),
		Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
			o.Ctx = ctx
			rows, err := Sensitivity(p, nil, o)
			if err != nil {
				return nil, err
			}
			return &Report{sensitivityReport(p, rows)}, nil
		},
	}
}

func init() {
	for _, e := range []Experiment{
		{
			Name: "fig5", Title: titleFig5,
			Description: "per-benchmark TEA-thread speedup over the baseline core",
			Run:         speedupExp(titleFig5, Fig5),
		},
		{
			Name: "fig6", Title: "Fig 6: branch MPKI (baseline)",
			Description: "total branch MPKI per benchmark on the baseline",
			Run:         resultExp(fig6Report, Fig6),
		},
		{
			Name: "fig7", Title: "Fig 7: misprediction breakdown under TEA",
			Description: "retired mispredictions split into covered/late/incorrect/uncovered",
			Run:         resultExp(fig7Report, Fig7),
		},
		{
			Name: "fig8", Title: "Fig 8: TEA vs Branch Runahead",
			Description: "TEA vs Branch Runahead with the simple/complex control-flow split",
			Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
				o.Ctx = ctx
				rows, err := Fig8(o)
				if err != nil {
					return nil, err
				}
				return &Report{fig8Report(rows)}, nil
			},
		},
		{
			Name: "fig9", Title: titleFig9,
			Description: "TEA thread on a dedicated 16-unit execution engine",
			Run:         speedupExp(titleFig9, Fig9),
		},
		{
			Name: "fig9big", Title: titleFig9Big,
			Description: "TEA thread on an engine as large as the main core's backend",
			Run:         speedupExp(titleFig9Big, Fig9Big),
		},
		{
			Name: "wide16", Title: titleWide16,
			Description: "16-wide frontend baseline without precomputation",
			Run:         speedupExp(titleWide16, Wide16),
		},
		{
			Name: "fig10", Title: "Fig 10: thread-construction ablations",
			Description: "accuracy/coverage/timeliness across thread-construction ablations",
			Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
				o.Ctx = ctx
				rows, err := Fig10(o)
				if err != nil {
					return nil, err
				}
				return &Report{fig10Report(rows)}, nil
			},
		},
		{
			Name: "table3", Title: "Table III: extra dynamic uops fetched by the TEA thread",
			Description: "extra dynamic uop footprint of the TEA thread per benchmark",
			Run:         resultExp(table3Report, Table3),
		},
		{
			Name: "prefetchonly", Title: titlePrefetchOnly,
			Description: "TEA with early resolution disabled (data-prefetch effect only)",
			Run:         speedupExp(titlePrefetchOnly, PrefetchOnly),
		},
		{
			Name: "custom", Title: titleCustom,
			Description: "a user-supplied machine point (ExpOptions.Spec + Set patches) vs the baseline",
			Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
				o.Ctx = ctx
				rows, err := Custom(o.Spec, o.Set, o)
				if err != nil {
					return nil, err
				}
				return &Report{speedupsReport(titleCustom, rows)}, nil
			},
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
