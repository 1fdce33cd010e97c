package tea_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"teasim/tea"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// Hand-built rows: the golden files pin the rendering, not the simulator,
// so the values are small fixed numbers.

func sampleSpeedupRows() []tea.SpeedupRow {
	return []tea.SpeedupRow{
		{
			Workload: "bfs",
			Base:     tea.Result{Workload: "bfs", Mode: tea.ModeBaseline, Cycles: 200000, Instructions: 100000, IPC: 0.5, Accuracy: 1},
			With:     tea.Result{Workload: "bfs", Mode: tea.ModeTEA, Cycles: 160000, Instructions: 100000, IPC: 0.625, Coverage: 0.92, Accuracy: 0.998},
			Speedup:  1.25,
		},
		{
			Workload: "mcf",
			Base:     tea.Result{Workload: "mcf", Mode: tea.ModeBaseline, Cycles: 300000, Instructions: 100000, IPC: 0.334, Accuracy: 1},
			With:     tea.Result{Workload: "mcf", Mode: tea.ModeTEA, Cycles: 250000, Instructions: 100000, IPC: 0.4, Coverage: 0.68, Accuracy: 0.941},
			Speedup:  1.2,
		},
	}
}

func sampleFig8Rows() []tea.Fig8Row {
	return []tea.Fig8Row{
		{Workload: "mcf", SimpleFlow: false, TEA: 1.2, Runahead: 1.05},
		{Workload: "bfs", SimpleFlow: true, TEA: 1.25, Runahead: 1.0},
		{Workload: "xz", SimpleFlow: true, TEA: 0.97, Runahead: 0.9},
	}
}

func sampleFig10Rows() []tea.Fig10Row {
	return []tea.Fig10Row{
		{Workload: "bfs", Config: "tea", Accuracy: 0.998, Coverage: 0.92, Saved: 31.5},
		{Workload: "mcf", Config: "tea", Accuracy: 0.941, Coverage: 0.68, Saved: 18.2},
		{Workload: "bfs", Config: "nomem", Accuracy: 0.85, Coverage: 0.4, Saved: 12.0},
		{Workload: "mcf", Config: "nomem", Accuracy: 0.8, Coverage: 0.3, Saved: 9.1},
	}
}

func sampleFig6Rows() []tea.Result {
	return []tea.Result{
		{Workload: "bfs", Mode: tea.ModeBaseline, Cycles: 200000, Instructions: 100000, IPC: 0.5,
			MPKI: 12.34, CondMispredicts: 1180, IndMispredicts: 54, Accuracy: 1},
		{Workload: "mcf", Mode: tea.ModeBaseline, Cycles: 300000, Instructions: 100000, IPC: 0.334,
			MPKI: 30.55, CondMispredicts: 3049, IndMispredicts: 6, Accuracy: 1},
	}
}

func sampleFig7Rows() []tea.Result {
	return []tea.Result{
		{Workload: "bfs", Mode: tea.ModeTEA, Covered: 1090, Late: 41, Incorrect: 3, Uncovered: 100,
			Coverage: 0.92, Accuracy: 0.998},
		{Workload: "mcf", Mode: tea.ModeTEA, Covered: 2075, Late: 310, Incorrect: 12, Uncovered: 664,
			Coverage: 0.68, Accuracy: 0.941},
	}
}

func sampleTable3Rows() []tea.Result {
	return []tea.Result{
		{Workload: "bfs", Mode: tea.ModeTEA, UopOverheadPct: 42.25},
		{Workload: "mcf", Mode: tea.ModeTEA, UopOverheadPct: 118.4},
	}
}

func sampleSensRows() []tea.SensRow {
	return []tea.SensRow{
		{Workload: "bfs", Value: 2, Speedup: 1.1, Coverage: 0.7, Accuracy: 0.99},
		{Workload: "mcf", Value: 2, Speedup: 0.9996, Coverage: 0.5, Accuracy: 0.93},
		{Workload: "bfs", Value: 4, Speedup: 1.25, Coverage: 0.92, Accuracy: 0.998},
		{Workload: "mcf", Value: 4, Speedup: 1.2, Coverage: 0.68, Accuracy: 0.941},
	}
}

func sampleShootoutRows() []tea.ShootoutRow {
	return []tea.ShootoutRow{
		{Workload: "bfs", Kind: "none", Speedup: 1, Accuracy: 0.95},
		{Workload: "mcf", Kind: "none", Speedup: 1, Accuracy: 0.9},
		{Workload: "bfs", Kind: "tea", Speedup: 1.25, Coverage: 0.92, Accuracy: 0.998, Saved: 31.5},
		{Workload: "mcf", Kind: "tea", Speedup: 1.2, Coverage: 0.68, Accuracy: 0.941, Saved: 18.2},
		{Workload: "bfs", Kind: "runahead", Speedup: 1.0, Coverage: 0.1, Accuracy: 0.8, Saved: 4.25},
		{Workload: "mcf", Kind: "runahead", Speedup: 0.98, Coverage: 0.05, Accuracy: 0.7, Saved: 2},
	}
}

// sampleErr is a quarantined cell's failure: longer than an error row
// prints, and with a comma and a quote for CSV to escape.
const sampleErr = `panic in mcf/tea (spec 0123456789abcdef): injected "boom", after 3 attempts`

// withErr returns rows with row i replaced by failed(row i): the partial-run
// samples, each with exactly one quarantined row.
func withErr[T any](rows []T, i int, failed func(T) T) []T {
	rows[i] = failed(rows[i])
	return rows
}

func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name  string
		write func(w io.Writer, f tea.Format) error
	}{
		{"speedups", func(w io.Writer, f tea.Format) error {
			return tea.WriteSpeedups(w, f, "Fig 5: sample speedups", sampleSpeedupRows())
		}},
		{"fig8", func(w io.Writer, f tea.Format) error {
			return tea.WriteFig8(w, f, sampleFig8Rows())
		}},
		{"fig10", func(w io.Writer, f tea.Format) error {
			return tea.WriteFig10(w, f, sampleFig10Rows())
		}},
		{"fig6", func(w io.Writer, f tea.Format) error {
			return tea.WriteFig6(w, f, sampleFig6Rows())
		}},
		{"fig7", func(w io.Writer, f tea.Format) error {
			return tea.WriteFig7(w, f, sampleFig7Rows())
		}},
		{"table3", func(w io.Writer, f tea.Format) error {
			return tea.WriteTable3(w, f, sampleTable3Rows())
		}},
		{"sensitivity", func(w io.Writer, f tea.Format) error {
			return tea.WriteSensitivity(w, f, tea.SensLead, sampleSensRows())
		}},
		{"shootout", func(w io.Writer, f tea.Format) error {
			return tea.WriteShootout(w, f, sampleShootoutRows())
		}},

		// Partial runs: one row of each sample is quarantined.
		{"speedups-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleSpeedupRows(), 1, func(r tea.SpeedupRow) tea.SpeedupRow {
				return tea.SpeedupRow{Workload: r.Workload, Base: r.Base, Err: sampleErr}
			})
			return tea.WriteSpeedups(w, f, "Fig 5: sample speedups", rows)
		}},
		{"fig6-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleFig6Rows(), 0, func(r tea.Result) tea.Result {
				return tea.Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return tea.WriteFig6(w, f, rows)
		}},
		{"fig7-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleFig7Rows(), 1, func(r tea.Result) tea.Result {
				return tea.Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return tea.WriteFig7(w, f, rows)
		}},
		{"fig8-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleFig8Rows(), 1, func(r tea.Fig8Row) tea.Fig8Row {
				return tea.Fig8Row{Workload: r.Workload, SimpleFlow: r.SimpleFlow, Err: sampleErr}
			})
			return tea.WriteFig8(w, f, rows)
		}},
		{"fig10-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleFig10Rows(), 3, func(r tea.Fig10Row) tea.Fig10Row {
				return tea.Fig10Row{Workload: r.Workload, Config: r.Config, Err: sampleErr}
			})
			return tea.WriteFig10(w, f, rows)
		}},
		{"table3-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleTable3Rows(), 1, func(r tea.Result) tea.Result {
				return tea.Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return tea.WriteTable3(w, f, rows)
		}},
		{"sensitivity-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleSensRows(), 2, func(r tea.SensRow) tea.SensRow {
				return tea.SensRow{Workload: r.Workload, Value: r.Value, Err: sampleErr}
			})
			return tea.WriteSensitivity(w, f, tea.SensLead, rows)
		}},
		{"shootout-partial", func(w io.Writer, f tea.Format) error {
			rows := withErr(sampleShootoutRows(), 3, func(r tea.ShootoutRow) tea.ShootoutRow {
				return tea.ShootoutRow{Workload: r.Workload, Kind: r.Kind, Err: sampleErr}
			})
			return tea.WriteShootout(w, f, rows)
		}},
	}
	formats := []struct {
		ext string
		f   tea.Format
	}{
		{"txt", tea.FormatText},
		{"json", tea.FormatJSON},
		{"csv", tea.FormatCSV},
	}
	for _, c := range cases {
		for _, ff := range formats {
			t.Run(c.name+"."+ff.ext, func(t *testing.T) {
				var buf bytes.Buffer
				if err := c.write(&buf, ff.f); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", c.name+"."+ff.ext)
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./tea -run TestGoldenReports -update` to create)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("rendering changed; got:\n%s\nwant:\n%s", buf.Bytes(), want)
				}
			})
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, f := range []tea.Format{tea.FormatText, tea.FormatJSON, tea.FormatCSV} {
		got, err := tea.ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := tea.ParseFormat("yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestPrintMatchesWriteText(t *testing.T) {
	var p, w bytes.Buffer
	tea.PrintSpeedups(&p, "Fig 5: sample speedups", sampleSpeedupRows())
	if err := tea.WriteSpeedups(&w, tea.FormatText, "Fig 5: sample speedups", sampleSpeedupRows()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Bytes(), w.Bytes()) {
		t.Fatal("PrintSpeedups and WriteSpeedups(text) disagree")
	}
}

func TestModeJSONRoundTrip(t *testing.T) {
	for _, m := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA, tea.ModeTEADedicated,
		tea.ModeBranchRunahead, tea.ModeTEABigEngine, tea.ModeWide16} {
		got, err := tea.ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := tea.ParseMode("warp-drive"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}
