package tea

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// updateGoldens reports the -update flag, which the package's external
// tests declare (experiment_golden_test.go) for every golden file here.
func updateGoldens() bool { return flag.Lookup("update").Value.String() == "true" }

// Hand-built rows: the golden files pin the rendering, not the simulator,
// so the values are small fixed numbers.

func sampleSpeedupRows() []SpeedupRow {
	return []SpeedupRow{
		{
			Workload: "bfs",
			Base:     Result{Workload: "bfs", Mode: ModeBaseline, Cycles: 200000, Instructions: 100000, IPC: 0.5, Accuracy: 1},
			With:     Result{Workload: "bfs", Mode: ModeTEA, Cycles: 160000, Instructions: 100000, IPC: 0.625, Coverage: 0.92, Accuracy: 0.998},
			Speedup:  1.25,
		},
		{
			Workload: "mcf",
			Base:     Result{Workload: "mcf", Mode: ModeBaseline, Cycles: 300000, Instructions: 100000, IPC: 0.334, Accuracy: 1},
			With:     Result{Workload: "mcf", Mode: ModeTEA, Cycles: 250000, Instructions: 100000, IPC: 0.4, Coverage: 0.68, Accuracy: 0.941},
			Speedup:  1.2,
		},
	}
}

func sampleFig8Rows() []Fig8Row {
	return []Fig8Row{
		{Workload: "mcf", SimpleFlow: false, TEA: 1.2, Runahead: 1.05},
		{Workload: "bfs", SimpleFlow: true, TEA: 1.25, Runahead: 1.0},
		{Workload: "xz", SimpleFlow: true, TEA: 0.97, Runahead: 0.9},
	}
}

func sampleFig10Rows() []Fig10Row {
	return []Fig10Row{
		{Workload: "bfs", Config: "tea", Accuracy: 0.998, Coverage: 0.92, Saved: 31.5},
		{Workload: "mcf", Config: "tea", Accuracy: 0.941, Coverage: 0.68, Saved: 18.2},
		{Workload: "bfs", Config: "nomem", Accuracy: 0.85, Coverage: 0.4, Saved: 12.0},
		{Workload: "mcf", Config: "nomem", Accuracy: 0.8, Coverage: 0.3, Saved: 9.1},
	}
}

func sampleFig6Rows() []Result {
	return []Result{
		{Workload: "bfs", Mode: ModeBaseline, Cycles: 200000, Instructions: 100000, IPC: 0.5,
			MPKI: 12.34, CondMispredicts: 1180, IndMispredicts: 54, Accuracy: 1},
		{Workload: "mcf", Mode: ModeBaseline, Cycles: 300000, Instructions: 100000, IPC: 0.334,
			MPKI: 30.55, CondMispredicts: 3049, IndMispredicts: 6, Accuracy: 1},
	}
}

func sampleFig7Rows() []Result {
	return []Result{
		{Workload: "bfs", Mode: ModeTEA, Covered: 1090, Late: 41, Incorrect: 3, Uncovered: 100,
			Coverage: 0.92, Accuracy: 0.998},
		{Workload: "mcf", Mode: ModeTEA, Covered: 2075, Late: 310, Incorrect: 12, Uncovered: 664,
			Coverage: 0.68, Accuracy: 0.941},
	}
}

func sampleTable3Rows() []Result {
	return []Result{
		{Workload: "bfs", Mode: ModeTEA, UopOverheadPct: 42.25},
		{Workload: "mcf", Mode: ModeTEA, UopOverheadPct: 118.4},
	}
}

func sampleSensRows() []SensRow {
	return []SensRow{
		{Workload: "bfs", Value: 2, Speedup: 1.1, Coverage: 0.7, Accuracy: 0.99},
		{Workload: "mcf", Value: 2, Speedup: 0.9996, Coverage: 0.5, Accuracy: 0.93},
		{Workload: "bfs", Value: 4, Speedup: 1.25, Coverage: 0.92, Accuracy: 0.998},
		{Workload: "mcf", Value: 4, Speedup: 1.2, Coverage: 0.68, Accuracy: 0.941},
	}
}

func sampleShootoutRows() []ShootoutRow {
	return []ShootoutRow{
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
		write func(w io.Writer, f Format) error
	}{
		{"speedups", func(w io.Writer, f Format) error {
			return speedupsReport("Fig 5: sample speedups", sampleSpeedupRows()).write(w, f)
		}},
		{"fig8", func(w io.Writer, f Format) error {
			return fig8Report(sampleFig8Rows()).write(w, f)
		}},
		{"fig10", func(w io.Writer, f Format) error {
			return fig10Report(sampleFig10Rows()).write(w, f)
		}},
		{"fig6", func(w io.Writer, f Format) error {
			return fig6Report(sampleFig6Rows()).write(w, f)
		}},
		{"fig7", func(w io.Writer, f Format) error {
			return fig7Report(sampleFig7Rows()).write(w, f)
		}},
		{"table3", func(w io.Writer, f Format) error {
			return table3Report(sampleTable3Rows()).write(w, f)
		}},
		{"sensitivity", func(w io.Writer, f Format) error {
			return sensitivityReport(SensLead, sampleSensRows()).write(w, f)
		}},
		{"shootout", func(w io.Writer, f Format) error {
			return shootoutReport(sampleShootoutRows()).write(w, f)
		}},

		// Partial runs: one row of each sample is quarantined.
		{"speedups-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleSpeedupRows(), 1, func(r SpeedupRow) SpeedupRow {
				return SpeedupRow{Workload: r.Workload, Base: r.Base, Err: sampleErr}
			})
			return speedupsReport("Fig 5: sample speedups", rows).write(w, f)
		}},
		{"fig6-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleFig6Rows(), 0, func(r Result) Result {
				return Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return fig6Report(rows).write(w, f)
		}},
		{"fig7-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleFig7Rows(), 1, func(r Result) Result {
				return Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return fig7Report(rows).write(w, f)
		}},
		{"fig8-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleFig8Rows(), 1, func(r Fig8Row) Fig8Row {
				return Fig8Row{Workload: r.Workload, SimpleFlow: r.SimpleFlow, Err: sampleErr}
			})
			return fig8Report(rows).write(w, f)
		}},
		{"fig10-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleFig10Rows(), 3, func(r Fig10Row) Fig10Row {
				return Fig10Row{Workload: r.Workload, Config: r.Config, Err: sampleErr}
			})
			return fig10Report(rows).write(w, f)
		}},
		// A config whose first row failed still gets exactly one footer.
		{"fig10-partial-first", func(w io.Writer, f Format) error {
			rows := withErr(sampleFig10Rows(), 2, func(r Fig10Row) Fig10Row {
				return Fig10Row{Workload: r.Workload, Config: r.Config, Err: sampleErr}
			})
			return fig10Report(rows).write(w, f)
		}},
		{"table3-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleTable3Rows(), 1, func(r Result) Result {
				return Result{Workload: r.Workload, Mode: r.Mode, Err: sampleErr}
			})
			return table3Report(rows).write(w, f)
		}},
		{"sensitivity-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleSensRows(), 2, func(r SensRow) SensRow {
				return SensRow{Workload: r.Workload, Value: r.Value, Err: sampleErr}
			})
			return sensitivityReport(SensLead, rows).write(w, f)
		}},
		{"shootout-partial", func(w io.Writer, f Format) error {
			rows := withErr(sampleShootoutRows(), 3, func(r ShootoutRow) ShootoutRow {
				return ShootoutRow{Workload: r.Workload, Kind: r.Kind, Err: sampleErr}
			})
			return shootoutReport(rows).write(w, f)
		}},
	}
	formats := []struct {
		ext string
		f   Format
	}{
		{"txt", FormatText},
		{"json", FormatJSON},
		{"csv", FormatCSV},
	}
	for _, c := range cases {
		for _, ff := range formats {
			t.Run(c.name+"."+ff.ext, func(t *testing.T) {
				var buf bytes.Buffer
				if err := c.write(&buf, ff.f); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", c.name+"."+ff.ext)
				if updateGoldens() {
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
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

// TestPrintMatchesWriteText: writing a report leaves it unchanged, so text
// written after JSON and CSV equals text written first.
func TestPrintMatchesWriteText(t *testing.T) {
	rep := &Report{speedupsReport("Fig 5: sample speedups", sampleSpeedupRows())}
	var first, last bytes.Buffer
	if err := rep.Write(&first, FormatText); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatJSON, FormatCSV} {
		if err := rep.Write(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Write(&last, FormatText); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), last.Bytes()) {
		t.Fatalf("text written after JSON and CSV differs:\nfirst:\n%s\nlast:\n%s", first.Bytes(), last.Bytes())
	}
}
