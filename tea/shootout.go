package tea

import (
	"context"
	"fmt"
	"io"

	"teasim/tea/spec"
)

// ShootoutRow is one workload × companion-kind cell of the companion zoo
// shootout: the kind's speedup over the shared baseline plus its
// coverage/accuracy/timeliness breakdown.
type ShootoutRow struct {
	Workload string
	Kind     string
	Speedup  float64
	Coverage float64
	Accuracy float64
	// Saved is the timeliness metric: cycles saved per covered misprediction.
	Saved float64
	// Err annotates a quarantined row (ExpOptions.Partial).
	Err string `json:"Err,omitempty"`
}

// ShootoutKinds returns the companion kinds the shootout compares, in report
// order: the paper's none/tea/runahead rows first (their cells are
// bit-identical to the Fig 5/8 cells), then every other registered kind in
// sorted order. The list is registry-driven — a newly registered companion
// kind with a same-named preset joins the shootout without touching this
// package.
func ShootoutKinds() []spec.CompanionKind {
	head := []spec.CompanionKind{spec.CompanionNone, spec.CompanionTEA, spec.CompanionRunahead}
	seen := map[spec.CompanionKind]bool{}
	for _, k := range head {
		seen[k] = true
	}
	kinds := append([]spec.CompanionKind(nil), head...)
	for _, k := range spec.Kinds() {
		if !seen[k] {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// shootoutConfig builds one kind's cell config. tea and runahead go through
// their Modes — the exact memo keys Fig 5/8 use, so their rows come from (or
// seed) the same cache entries; every other kind resolves the preset
// registered under its own name.
func shootoutConfig(o ExpOptions, kind spec.CompanionKind) (Config, error) {
	switch kind {
	case spec.CompanionTEA:
		return o.cfg(ModeTEA), nil
	case spec.CompanionRunahead:
		return o.cfg(ModeBranchRunahead), nil
	}
	p, err := spec.Preset(string(kind))
	if err != nil {
		return Config{}, fmt.Errorf("tea: shootout: companion kind %q has no preset: %w", kind, err)
	}
	cfg := o.cfg(ModeBaseline)
	cfg.Spec = &p
	return cfg, nil
}

// Shootout runs every registered companion kind against the shared baseline:
// the N-way generalization of Fig. 8. Each workload's baseline is simulated
// exactly once — the opening "none" pass populates the engine memo, and every
// kind's speedup batch hits it — so adding a companion to the zoo costs one
// extra cell per workload, never a new baseline.
func Shootout(o ExpOptions) ([]ShootoutRow, error) {
	o = o.fill()
	ctx := o.ctx()
	kinds := ShootoutKinds()

	// The "none" pass is both the first report group and everybody's
	// baseline cells.
	base, err := runAll(ctx, o, o.cfg(ModeBaseline))
	if err != nil {
		return nil, err
	}
	rows := make([]ShootoutRow, 0, len(kinds)*len(o.Workloads))
	for i, name := range o.Workloads {
		row := ShootoutRow{Workload: name, Kind: string(spec.CompanionNone), Speedup: 1}
		if base[i].Err != "" {
			row.Err = base[i].Err
		} else {
			row.Accuracy = base[i].Accuracy
		}
		rows = append(rows, row)
	}

	for _, kind := range kinds[1:] {
		cfg, err := shootoutConfig(o, kind)
		if err != nil {
			return nil, err
		}
		sp, err := runSpeedups(ctx, o, cfg.Mode, func(Config) Config { return cfg })
		if err != nil {
			return nil, err
		}
		for _, s := range sp {
			rows = append(rows, ShootoutRow{
				Workload: s.Workload,
				Kind:     string(kind),
				Speedup:  s.Speedup,
				Coverage: s.With.Coverage,
				Accuracy: s.With.Accuracy,
				Saved:    s.With.AvgCyclesSaved,
				Err:      s.Err,
			})
		}
	}
	return rows, nil
}

const titleShootout = "Companion shootout: every registered companion kind vs the shared baseline"

func shootoutReport(rows []ShootoutRow) report {
	header := []string{"kind", "workload", "speedup", "coverage", "accuracy", "saved/branch"}
	r := report{
		title:  titleShootout,
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Kind, row.Workload}, row.Err, len(header))
			}
			return []string{
				row.Kind, row.Workload,
				pct(row.Speedup),
				fmt.Sprintf("%.0f%%", 100*row.Coverage),
				fmt.Sprintf("%.1f%%", 100*row.Accuracy),
				fmt.Sprintf("%.1f", row.Saved),
			}
		},
	}
	agg := map[string][]ShootoutRow{}
	var order []string
	for _, row := range rows {
		if _, seen := agg[row.Kind]; !seen {
			order = append(order, row.Kind)
			agg[row.Kind] = nil
		}
		if row.Err != "" {
			r.errRows++
			continue
		}
		agg[row.Kind] = append(agg[row.Kind], row)
	}
	for _, kind := range order {
		var sp, cov, acc []float64
		for _, row := range agg[kind] {
			sp = append(sp, row.Speedup)
			cov = append(cov, row.Coverage)
			acc = append(acc, row.Accuracy)
		}
		r.footers = append(r.footers, []string{"geomean " + kind, "",
			pct(Geomean(sp)),
			fmt.Sprintf("%.0f%%", 100*mean(cov)),
			fmt.Sprintf("%.1f%%", 100*mean(acc)), ""})
	}
	return r
}

// WriteShootout renders the companion shootout with per-kind geomean footers.
func WriteShootout(w io.Writer, f Format, rows []ShootoutRow) error {
	return shootoutReport(rows).write(w, f)
}

// PrintShootout renders the companion shootout as text.
func PrintShootout(w io.Writer, rows []ShootoutRow) { WriteShootout(w, FormatText, rows) }

func init() {
	RegisterExperiment(Experiment{
		Name:        "shootout",
		Title:       titleShootout,
		Description: "every registered companion kind vs the shared baseline (N-way Fig 8)",
		Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
			o.Ctx = ctx
			rows, err := Shootout(o)
			if err != nil {
				return nil, err
			}
			return &Report{shootoutReport(rows)}, nil
		},
	})
}
