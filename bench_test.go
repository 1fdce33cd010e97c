// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§V). Each benchmark regenerates its experiment through
// the experiment registry on a reduced instruction budget and reports the
// headline quantity via b.ReportMetric, printing the full table through
// b.Log on the first run.
//
// Budgets are intentionally small so `go test -bench=.` finishes in
// minutes; use cmd/teaexp for full-budget reproductions, and set
// TEASIM_BENCH_N to override the per-run instruction budget.
package teasim_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"teasim/tea"
)

// benchBudget returns the per-run instruction budget for benchmarks.
func benchBudget(def uint64) uint64 {
	if v := os.Getenv("TEASIM_BENCH_N"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// runExp runs catalog experiment name at budget n on workloads (none = the
// whole suite), logging its text table on iteration 0.
func runExp(b *testing.B, i int, name string, n uint64, workloads ...string) *tea.Report {
	b.Helper()
	rep, err := tea.RunExperiment(context.Background(), name,
		tea.ExpOptions{MaxInstructions: n, Scale: 1, Workloads: workloads})
	if err != nil {
		b.Fatal(err)
	}
	if i == 0 {
		var sb strings.Builder
		if err := rep.Write(&sb, tea.FormatText); err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + sb.String())
	}
	return rep
}

// allocMeter reports heap allocations per simulated kilo-instruction, the
// bench-trajectory metric that makes hot-path allocation regressions visible
// regardless of how many simulated instructions a benchmark covers. Start it
// before the loop, add each iteration's simulated instruction count, and
// report after the loop.
type allocMeter struct {
	startMallocs uint64
	instrs       uint64
}

func startAllocMeter(b *testing.B) *allocMeter {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &allocMeter{startMallocs: ms.Mallocs}
}

func (m *allocMeter) add(instrs uint64) { m.instrs += instrs }

// addRows accumulates the simulated instructions behind a result set.
func (m *allocMeter) addRows(rows []tea.Result) {
	for _, r := range rows {
		m.instrs += r.Instructions
	}
}

// addSpeedups accumulates both halves of a speedup experiment.
func (m *allocMeter) addSpeedups(rows []tea.SpeedupRow) {
	for _, r := range rows {
		m.instrs += r.Base.Instructions + r.With.Instructions
	}
}

// addSens accumulates the simulated instructions behind a sensitivity sweep.
func (m *allocMeter) addSens(rows []tea.SensRow) {
	for _, r := range rows {
		m.instrs += r.Instructions
	}
}

func (m *allocMeter) report(b *testing.B) {
	if m.instrs == 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-m.startMallocs)/(float64(m.instrs)/1000), "allocs/kinstr")
}

// benchSpeedups regenerates a speedup experiment. Reported metric:
// geomean speedup percentage.
func benchSpeedups(b *testing.B, name string) {
	m := startAllocMeter(b)
	n := benchBudget(150_000)
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, name, n).Rows().([]tea.SpeedupRow)
		m.addSpeedups(rows)
		var sp []float64
		for _, r := range rows {
			sp = append(sp, r.Speedup)
		}
		b.ReportMetric(100*(tea.Geomean(sp)-1), "geomean-speedup-%")
	}
	m.report(b)
}

// BenchmarkFig5TEASpeedup regenerates Fig. 5: per-benchmark speedup of the
// on-core TEA thread (paper geomean +10.1%).
func BenchmarkFig5TEASpeedup(b *testing.B) { benchSpeedups(b, "fig5") }

// BenchmarkFig6MPKI regenerates Fig. 6: baseline branch MPKI. Reported
// metric: mean MPKI across the suite.
func BenchmarkFig6MPKI(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(150_000)
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, "fig6", n).Rows().([]tea.Result)
		m.addRows(rows)
		sum := 0.0
		for _, r := range rows {
			sum += r.MPKI
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-MPKI")
	}
	m.report(b)
}

// BenchmarkFig7Coverage regenerates Fig. 7: the covered/late/incorrect/
// uncovered breakdown (paper: ~76% coverage). Reported metric: mean
// coverage percentage.
func BenchmarkFig7Coverage(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(150_000)
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, "fig7", n).Rows().([]tea.Result)
		m.addRows(rows)
		sum := 0.0
		for _, r := range rows {
			sum += r.Coverage
		}
		b.ReportMetric(100*sum/float64(len(rows)), "mean-coverage-%")
	}
	m.report(b)
}

// BenchmarkFig8VsRunahead regenerates Fig. 8: TEA vs Branch Runahead
// (paper: 10.1% vs 7.3%). Reported metrics: both geomeans, plus simulated
// instructions per second so the regression gate covers a multi-mode
// experiment (Fig 8 runs baseline, TEA, and runahead configs back to back).
func BenchmarkFig8VsRunahead(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(150_000)
	var instrs uint64
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, "fig8", n).Rows().([]tea.Fig8Row)
		var teaSp, brSp []float64
		for _, r := range rows {
			m.add(r.Instructions)
			instrs += r.Instructions
			teaSp = append(teaSp, r.TEA)
			brSp = append(brSp, r.Runahead)
		}
		b.ReportMetric(100*(tea.Geomean(teaSp)-1), "tea-geomean-%")
		b.ReportMetric(100*(tea.Geomean(brSp)-1), "runahead-geomean-%")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instrs)/sec, "sim-instrs/s")
	}
	m.report(b)
}

// BenchmarkFig9DedicatedEngine regenerates Fig. 9: TEA on a dedicated
// execution engine (paper: +12.3%).
func BenchmarkFig9DedicatedEngine(b *testing.B) { benchSpeedups(b, "fig9") }

// BenchmarkFig10Ablations regenerates Fig. 10: accuracy / coverage /
// timeliness across the five thread-construction configurations. Reported
// metric: full-TEA mean accuracy percentage.
func BenchmarkFig10Ablations(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(80_000)
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, "fig10", n).Rows().([]tea.Fig10Row)
		var accSum float64
		var cnt int
		for _, r := range rows {
			m.add(r.Instructions)
			if r.Config == "tea" {
				accSum += r.Accuracy
				cnt++
			}
		}
		b.ReportMetric(100*accSum/float64(cnt), "tea-mean-accuracy-%")
	}
	m.report(b)
}

// BenchmarkTable3Footprint regenerates Table III: the TEA thread's extra
// dynamic uop footprint (paper average +31.9%). Reported metric: mean
// overhead percentage.
func BenchmarkTable3Footprint(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(150_000)
	for i := 0; i < b.N; i++ {
		rows := runExp(b, i, "table3", n).Rows().([]tea.Result)
		m.addRows(rows)
		sum := 0.0
		for _, r := range rows {
			sum += r.UopOverheadPct
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-overhead-%")
	}
	m.report(b)
}

// BenchmarkPrefetchOnly regenerates the §V-B aside: early resolution off,
// measuring the TEA thread's residual prefetching effect (paper: +1.2%).
func BenchmarkPrefetchOnly(b *testing.B) { benchSpeedups(b, "prefetchonly") }

// BenchmarkSimulatorThroughput measures raw simulation speed on a
// representative memory-bound workload (mcf, TEA mode) — a harness health
// metric, not a paper figure. Reported rates: simulated cycles per second
// (the idle-skip win shows up here: skipped cycles are simulated without
// being ticked) and simulated instructions per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	m := startAllocMeter(b)
	n := benchBudget(200_000)
	var cycles, instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := tea.Run("mcf", tea.Config{Mode: tea.ModeTEA, MaxInstructions: n, Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions), "instructions")
		cycles += res.Cycles
		instrs += res.Instructions
		m.add(res.Instructions)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)/sec, "sim-cycles/s")
		b.ReportMetric(float64(instrs)/sec, "sim-instrs/s")
	}
	m.report(b)
}

// benchSweep runs the registry's sensitivity sweep over p's SensDefaults
// on the given workloads.
func benchSweep(b *testing.B, p tea.SensParam, workloads ...string) {
	m := startAllocMeter(b)
	n := benchBudget(120_000)
	for i := 0; i < b.N; i++ {
		m.addSens(runExp(b, i, "sens-"+string(p), n, workloads...).Rows().([]tea.SensRow))
	}
	m.report(b)
}

// BenchmarkAblationBlockCache sweeps the Block Cache capacity (§IV-B: the
// paper reports deepsjeng/omnetpp gain ~5% from more entries, and added the
// empty-block tag store to stretch capacity). Uses the two capacity-bound
// workloads the paper names.
func BenchmarkAblationBlockCache(b *testing.B) {
	benchSweep(b, tea.SensBlockCache, "deepsjeng", "omnetpp")
}

// BenchmarkAblationFillBuffer sweeps the Fill Buffer size (§IV-C: the paper
// reports ~1% sensitivity because bit-masks let chains grow across walks).
func BenchmarkAblationFillBuffer(b *testing.B) {
	benchSweep(b, tea.SensFillBuffer, "mcf", "bfs", "tc")
}

// BenchmarkAblationLead sweeps the shadow-fetch-queue depth (DESIGN.md §7:
// short leads maximize surviving precomputation under frequent flushes).
func BenchmarkAblationLead(b *testing.B) { benchSweep(b, tea.SensLead, "bfs", "xz") }

// BenchmarkFig9BigEngine regenerates §V-D's second data point: the TEA
// thread on a main-core-sized execution engine (paper: +12.8%).
func BenchmarkFig9BigEngine(b *testing.B) { benchSpeedups(b, "fig9big") }

// BenchmarkWide16 regenerates §IV-H's comparison: a 16-wide frontend
// without precomputation barely helps because the branch predictor still
// delivers one taken branch per cycle (paper: ~+2.8%).
func BenchmarkWide16(b *testing.B) { benchSpeedups(b, "wide16") }
