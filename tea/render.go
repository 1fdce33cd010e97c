package tea

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
)

// Format selects a report rendering for the Write* functions.
type Format int

// Formats.
const (
	// FormatText renders the aligned human-readable table (the Print*
	// output).
	FormatText Format = iota
	// FormatJSON renders a {"title","columns","rows","summary"} envelope
	// whose rows are the structured experiment rows, not formatted cells.
	FormatJSON
	// FormatCSV renders the header, formatted rows, and summary rows as CSV
	// (no title line).
	FormatCSV
)

// String returns the format's flag name.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// ParseFormat parses a format flag name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	}
	return 0, fmt.Errorf("tea: unknown format %q (want text, json, or csv)", s)
}

// report is the one shape behind every table: a title, a header, the
// structured rows for JSON, their formatted cells for text and CSV, and
// summary footers. All renderings derive from it, so the three formats can
// never drift apart. Builders compute everything but the per-row cells
// eagerly; cells are formatted only when text or CSV is written, since JSON
// prints the structured rows instead.
type report struct {
	title   string
	header  []string
	data    any
	nrows   int                  // structured rows in data, one cell row each
	cells   func(i int) []string // formats row i (through errRow if its Err is set)
	footers [][]string
	errRows int // rows whose Err is set
}

// jsonReport is the FormatJSON envelope.
type jsonReport struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    any        `json:"rows"`
	Summary [][]string `json:"summary,omitempty"`
}

// write renders the report in the requested format.
func (r report) write(w io.Writer, f Format) error {
	switch f {
	case FormatText:
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\n", r.title)
		fmt.Fprintf(tw, "%s\n", strings.Join(r.header, "\t"))
		for i := 0; i < r.nrows; i++ {
			fmt.Fprintf(tw, "%s\n", strings.Join(r.cells(i), "\t"))
		}
		for _, row := range r.footers {
			fmt.Fprintf(tw, "%s\n", strings.Join(row, "\t"))
		}
		return tw.Flush()
	case FormatJSON:
		return writeJSON(w, jsonReport{Title: r.title, Columns: r.header, Rows: r.data, Summary: r.footers})
	case FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write(r.header); err != nil {
			return err
		}
		for i := 0; i < r.nrows; i++ {
			if err := cw.Write(r.cells(i)); err != nil {
				return err
			}
		}
		for _, row := range r.footers {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	return fmt.Errorf("tea: unknown format %d", int(f))
}

// jsonWriter is an indenting JSON encoder bound to its own buffer. JSON
// reports borrow one from jsonWriters, so a render reuses the encoder's
// indent buffer and the output buffer instead of growing fresh ones.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// maxPooledJSON caps the buffer a pooled jsonWriter keeps: a rare huge
// report (interval series) should not pin its memory.
const maxPooledJSON = 64 << 10

// writeJSON writes v to w as indented JSON, in one Write.
func writeJSON(w io.Writer, v any) error {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	err := jw.enc.Encode(v)
	if err == nil {
		_, err = w.Write(jw.buf.Bytes())
	}
	if jw.buf.Cap() <= maxPooledJSON {
		jsonWriters.Put(jw)
	}
	return err
}

// Report is a rendered-ready experiment outcome: the uniform row schema
// every registered experiment returns (see RunExperiment). One Report
// carries the title, header, structured rows, and how to format their
// cells, so all three Write* formats derive from the same data and can
// never drift apart.
type Report struct {
	rep report
}

// Title returns the report's title line.
func (r *Report) Title() string { return r.rep.title }

// Columns returns the report's column headers.
func (r *Report) Columns() []string { return append([]string(nil), r.rep.header...) }

// Rows returns the structured experiment rows ([]SpeedupRow, []Result,
// []Fig8Row, ... depending on the experiment).
func (r *Report) Rows() any { return r.rep.data }

// ErrorRows counts quarantined ERROR rows (ExpOptions.Partial): cells that
// failed and were excluded from the report's aggregates. Callers that need a
// degraded run to be machine-detectable (teaexp -partial's exit status, the
// serve daemon's response headers) key off this count.
func (r *Report) ErrorRows() int { return r.rep.errRows }

// Write renders the report in the requested format.
func (r *Report) Write(w io.Writer, f Format) error { return r.rep.write(w, f) }

// pct formats a signed percentage delta from a ratio (1.0 -> "+0.0%"). It
// prints what fmt's "%+.1f%%" prints, "-0.0%" included, with one allocation
// instead of two.
func pct(ratio float64) string {
	var buf [32]byte
	b := strconv.AppendFloat(buf[:1], 100*(ratio-1), 'f', 1, 64)
	if b[1] == '-' || b[1] == '+' {
		b = b[1:]
	} else {
		b[0] = '+'
	}
	return string(append(b, '%'))
}

// errRow formats a quarantined row (ExpOptions.Partial): the leading
// identity cells, then an ERROR annotation in place of the metrics, padded
// to the report width. Reports exclude such rows from their aggregate
// footers — a geomean over quarantined zeros would be meaningless.
func errRow(lead []string, errMsg string, width int) []string {
	const maxErr = 60
	if len(errMsg) > maxErr {
		errMsg = errMsg[:maxErr-3] + "..."
	}
	row := append(lead, "ERROR: "+errMsg)
	for len(row) < width {
		row = append(row, "")
	}
	return row
}

func speedupsReport(title string, rows []SpeedupRow) report {
	header := []string{"workload", "base cyc", "with cyc", "speedup", "coverage", "accuracy"}
	r := report{
		title:  title,
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Workload}, row.Err, len(header))
			}
			return []string{
				row.Workload,
				fmt.Sprintf("%d", row.Base.Cycles),
				fmt.Sprintf("%d", row.With.Cycles),
				pct(row.Speedup),
				fmt.Sprintf("%.0f%%", 100*row.With.Coverage),
				fmt.Sprintf("%.1f%%", 100*row.With.Accuracy),
			}
		},
	}
	var sp []float64
	for _, row := range rows {
		if row.Err != "" {
			r.errRows++
			continue
		}
		sp = append(sp, row.Speedup)
	}
	r.footers = [][]string{{"geomean", "", "", pct(Geomean(sp)), "", ""}}
	return r
}

// WriteSpeedups renders speedup rows with a geomean footer.
func WriteSpeedups(w io.Writer, f Format, title string, rows []SpeedupRow) error {
	return speedupsReport(title, rows).write(w, f)
}

// PrintSpeedups renders speedup rows as text with a geomean footer.
func PrintSpeedups(w io.Writer, title string, rows []SpeedupRow) {
	WriteSpeedups(w, FormatText, title, rows)
}

func fig6Report(rows []Result) report {
	header := []string{"workload", "MPKI", "cond misp", "target misp", "IPC"}
	r := report{
		title:  "Fig 6: branch MPKI (baseline)",
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Workload}, row.Err, len(header))
			}
			return []string{
				row.Workload,
				fmt.Sprintf("%.1f", row.MPKI),
				fmt.Sprintf("%d", row.CondMispredicts),
				fmt.Sprintf("%d", row.IndMispredicts),
				fmt.Sprintf("%.2f", row.IPC),
			}
		},
	}
	for _, row := range rows {
		if row.Err != "" {
			r.errRows++
		}
	}
	return r
}

// WriteFig6 renders the MPKI table.
func WriteFig6(w io.Writer, f Format, rows []Result) error {
	return fig6Report(rows).write(w, f)
}

// PrintFig6 renders the MPKI table as text.
func PrintFig6(w io.Writer, rows []Result) { WriteFig6(w, FormatText, rows) }

func fig7Report(rows []Result) report {
	header := []string{"workload", "covered", "late", "incorrect", "uncovered",
		"coverage", "accuracy"}
	r := report{
		title:  "Fig 7: misprediction breakdown under TEA",
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Workload}, row.Err, len(header))
			}
			return []string{
				row.Workload,
				fmt.Sprintf("%d", row.Covered),
				fmt.Sprintf("%d", row.Late),
				fmt.Sprintf("%d", row.Incorrect),
				fmt.Sprintf("%d", row.Uncovered),
				fmt.Sprintf("%.0f%%", 100*row.Coverage),
				fmt.Sprintf("%.1f%%", 100*row.Accuracy),
			}
		},
	}
	var cov, acc []float64
	for _, row := range rows {
		if row.Err != "" {
			r.errRows++
			continue
		}
		cov = append(cov, row.Coverage)
		acc = append(acc, row.Accuracy)
	}
	r.footers = [][]string{{"mean", "", "", "", "",
		fmt.Sprintf("%.0f%%", 100*mean(cov)), fmt.Sprintf("%.1f%%", 100*mean(acc))}}
	return r
}

// WriteFig7 renders the misprediction-coverage breakdown.
func WriteFig7(w io.Writer, f Format, rows []Result) error {
	return fig7Report(rows).write(w, f)
}

// PrintFig7 renders the misprediction-coverage breakdown as text.
func PrintFig7(w io.Writer, rows []Result) { WriteFig7(w, FormatText, rows) }

func fig8Report(rows []Fig8Row) report {
	grouped := append([]Fig8Row(nil), rows...)
	slices.SortStableFunc(grouped, func(a, b Fig8Row) int {
		switch {
		case a.SimpleFlow == b.SimpleFlow:
			return 0
		case a.SimpleFlow:
			return -1
		}
		return 1
	})
	header := []string{"workload", "flow", "TEA", "Runahead"}
	r := report{
		title:  "Fig 8: TEA vs Branch Runahead",
		header: header,
		data:   grouped,
		nrows:  len(grouped),
		cells: func(i int) []string {
			row := &grouped[i]
			flow := "complex"
			if row.SimpleFlow {
				flow = "simple"
			}
			if row.Err != "" {
				return errRow([]string{row.Workload, flow}, row.Err, len(header))
			}
			return []string{row.Workload, flow, pct(row.TEA), pct(row.Runahead)}
		},
	}
	// Simple-flow rows sort first, so the first `simple` speedups of each
	// column are the simple group and the rest the complex one.
	teaAll := make([]float64, 0, len(grouped))
	brAll := make([]float64, 0, len(grouped))
	simple := 0
	for _, row := range grouped {
		if row.Err != "" {
			r.errRows++
			continue
		}
		teaAll = append(teaAll, row.TEA)
		brAll = append(brAll, row.Runahead)
		if row.SimpleFlow {
			simple++
		}
	}
	r.footers = [][]string{
		{"geomean simple", "", pct(Geomean(teaAll[:simple])), pct(Geomean(brAll[:simple]))},
		{"geomean complex", "", pct(Geomean(teaAll[simple:])), pct(Geomean(brAll[simple:]))},
		{"geomean all", "", pct(Geomean(teaAll)), pct(Geomean(brAll))},
	}
	return r
}

// WriteFig8 renders the TEA-vs-Branch-Runahead comparison with the paper's
// simple/complex control-flow grouping.
func WriteFig8(w io.Writer, f Format, rows []Fig8Row) error {
	return fig8Report(rows).write(w, f)
}

// PrintFig8 renders the TEA-vs-Branch-Runahead comparison as text.
func PrintFig8(w io.Writer, rows []Fig8Row) { WriteFig8(w, FormatText, rows) }

func fig10Report(rows []Fig10Row) report {
	header := []string{"config", "workload", "accuracy", "coverage", "saved/branch"}
	r := report{
		title:  "Fig 10: thread-construction ablations",
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Config, row.Workload}, row.Err, len(header))
			}
			return []string{
				row.Config, row.Workload,
				fmt.Sprintf("%.1f%%", 100*row.Accuracy),
				fmt.Sprintf("%.0f%%", 100*row.Coverage),
				fmt.Sprintf("%.1f", row.Saved),
			}
		},
	}
	agg := map[string][]Fig10Row{}
	var order []string
	for _, row := range rows {
		if _, seen := agg[row.Config]; !seen {
			order = append(order, row.Config)
		}
		if row.Err != "" {
			r.errRows++
			continue
		}
		agg[row.Config] = append(agg[row.Config], row)
	}
	for _, cfg := range order {
		var acc, cov, saved []float64
		for _, row := range agg[cfg] {
			acc = append(acc, row.Accuracy)
			cov = append(cov, row.Coverage)
			saved = append(saved, row.Saved)
		}
		r.footers = append(r.footers, []string{"mean " + cfg, "",
			fmt.Sprintf("%.1f%%", 100*mean(acc)),
			fmt.Sprintf("%.0f%%", 100*mean(cov)),
			fmt.Sprintf("%.1f", mean(saved))})
	}
	return r
}

// WriteFig10 renders the ablation grid.
func WriteFig10(w io.Writer, f Format, rows []Fig10Row) error {
	return fig10Report(rows).write(w, f)
}

// PrintFig10 renders the ablation grid as text.
func PrintFig10(w io.Writer, rows []Fig10Row) { WriteFig10(w, FormatText, rows) }

func table3Report(rows []Result) report {
	header := []string{"workload", "overhead"}
	r := report{
		title:  "Table III: extra dynamic uops fetched by the TEA thread",
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Workload}, row.Err, len(header))
			}
			return []string{row.Workload, fmt.Sprintf("+%.1f%%", row.UopOverheadPct)}
		},
	}
	var ov []float64
	for _, row := range rows {
		if row.Err != "" {
			r.errRows++
			continue
		}
		ov = append(ov, row.UopOverheadPct)
	}
	r.footers = [][]string{{"mean", fmt.Sprintf("+%.1f%%", mean(ov))}}
	return r
}

// WriteTable3 renders the dynamic-footprint table.
func WriteTable3(w io.Writer, f Format, rows []Result) error {
	return table3Report(rows).write(w, f)
}

// PrintTable3 renders the dynamic-footprint table as text.
func PrintTable3(w io.Writer, rows []Result) { WriteTable3(w, FormatText, rows) }

func sensitivityReport(p SensParam, rows []SensRow) report {
	header := []string{"workload", "value", "speedup", "coverage", "accuracy"}
	r := report{
		title:  fmt.Sprintf("Sensitivity: %s", p),
		header: header,
		data:   rows,
		nrows:  len(rows),
		cells: func(i int) []string {
			row := &rows[i]
			if row.Err != "" {
				return errRow([]string{row.Workload, fmt.Sprintf("%d", row.Value)}, row.Err, len(header))
			}
			return []string{
				row.Workload,
				fmt.Sprintf("%d", row.Value),
				pct(row.Speedup),
				fmt.Sprintf("%.0f%%", 100*row.Coverage),
				fmt.Sprintf("%.1f%%", 100*row.Accuracy),
			}
		},
	}
	byValue := map[int][]float64{}
	var order []int
	for _, row := range rows {
		if _, seen := byValue[row.Value]; !seen {
			order = append(order, row.Value)
			byValue[row.Value] = nil
		}
		if row.Err != "" {
			r.errRows++
			continue
		}
		byValue[row.Value] = append(byValue[row.Value], row.Speedup)
	}
	for _, v := range order {
		r.footers = append(r.footers, []string{
			fmt.Sprintf("geomean @%d", v), "", pct(Geomean(byValue[v])), "", ""})
	}
	return r
}

// WriteSensitivity renders a sensitivity sweep with per-value geomeans.
func WriteSensitivity(w io.Writer, f Format, p SensParam, rows []SensRow) error {
	return sensitivityReport(p, rows).write(w, f)
}

// PrintSensitivity renders a sensitivity sweep as text.
func PrintSensitivity(w io.Writer, p SensParam, rows []SensRow) {
	WriteSensitivity(w, FormatText, p, rows)
}
