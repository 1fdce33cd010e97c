// Command teaexp regenerates the paper's tables and figures.
//
// Usage:
//
//	teaexp -list                    # print the experiment catalog
//	teaexp -exp fig5                # TEA speedup per benchmark
//	teaexp -exp fig8 -n 500000      # TEA vs Branch Runahead, 500k instrs each
//	teaexp -exp all                 # every experiment (slow)
//	teaexp -exp fig10 -workers 4    # bound the experiment worker pool
//	teaexp -exp fig8 -fabric 3      # shard cells across 3 teaworker processes
//	teaexp -exp fig5 -json          # machine-readable output (also: -format csv)
//	teaexp -exp fig5 -json -intervals         # per-interval time series per cell
//	teaexp -exp fig5 -trace-out /tmp/t -w bfs # JSONL event trace per cell
//	teaexp -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	teaexp -config machine.json               # custom machine point vs baseline
//	teaexp -set companion.kind=tea -set companion.tea.fill_buf_size=1024
//
// Experiments come from the tea experiment registry (tea.Experiments):
// fig5 fig6 fig7 fig8 fig9 fig9big wide16 fig10 table3 prefetchonly custom,
// plus sensitivity sweeps (sens-blockcache, sens-fillbuffer, sens-h2pdecay,
// sens-lead, sens-fetchqueue), the companion shootout (shootout), and the
// synthetic ids tables and all. The same registry backs the teasrvd daemon,
// so CLI and service output are byte-identical for the same request.
//
// -config loads a machine spec JSON file (see tea/spec; the committed preset
// goldens under tea/spec/testdata/specs are ready-made starting points) and
// repeatable -set flags patch individual fields. Either flag replaces -exp
// with a custom experiment: every workload runs on the configured machine
// and on the baseline, reported as a speedup table.
//
// Every (workload, config) cell runs as an independent job on a worker pool
// (default GOMAXPROCS; override with -workers or TEASIM_WORKERS), and all
// experiments of one invocation share a baseline memoization cache, so
// `-exp all` simulates each workload's baseline once.
//
// With -json or -format csv, stdout carries only the report data; timing
// lines move to stderr. -progress streams per-job start/finish lines to
// stderr in any format.
//
// Long runs (see DESIGN.md "Failure handling"):
//
//	teaexp -exp all -journal run             # checkpoint every finished cell
//	teaexp -exp all -journal run -resume     # re-simulate only missing cells
//	teaexp -exp fig5 -partial -retries 1 -repro-dir repro  # quarantine failures
//	teaexp -exp fig5 -paranoia               # per-cycle invariant checking
//
// -journal names a result store directory (tea/store, the format of
// `teasrvd -store`). Ctrl-C (SIGINT) stops cleanly: in-flight cells finish,
// every finished cell is already fsynced, and the process exits 130; a
// -resume rerun picks up exactly the cells that were still missing.
//
// Exit codes: 0 success, 1 run failure, 2 usage error, 3 success with
// quarantined error rows (-partial emitted at least one ERROR row), 130
// interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"teasim/internal/workloads"
	"teasim/tea"
	"teasim/tea/fabric"
	"teasim/tea/spec"
	"teasim/tea/store"
)

func main() { os.Exit(realMain()) }

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// realMain runs the experiments and returns the process exit code; keeping
// it separate from main lets deferred profile writers flush on every path.
func realMain() int {
	var (
		exp      = flag.String("exp", "fig5", "experiment id from the tea registry (fig5..fig10, table3, prefetchonly, sens-*), or tables / all")
		n        = flag.Uint64("n", 1_000_000, "max instructions per run")
		scale    = flag.Int("scale", 1, "workload input scale")
		wl       = flag.String("w", "", "comma-separated workload subset (default all)")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = TEASIM_WORKERS or GOMAXPROCS)")
		format   = flag.String("format", "text", "report format: text | json | csv")
		jsonFlag = flag.Bool("json", false, "shorthand for -format json")
		ivals    = flag.Bool("intervals", false, "sample a per-interval time series into every cell's result (JSON output)")
		ivPeriod = flag.Uint64("interval-period", 0, "interval sample period in retired instructions (0 = 10k)")
		traceOut = flag.String("trace-out", "", "write per-cell JSONL event traces to <base>-<workload>-<mode>.jsonl")
		progress = flag.Bool("progress", false, "stream per-job progress to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an exact allocation profile (every allocation recorded) to this file at exit")
		config   = flag.String("config", "", "machine spec JSON file: run it vs the baseline instead of -exp")

		journal  = flag.String("journal", "", "store every finished cell in this result store directory (the teasrvd -store format)")
		resume   = flag.Bool("resume", false, "pre-seed the result cache from -journal, re-simulating only missing cells")
		partial  = flag.Bool("partial", false, "quarantine failing cells as annotated error rows instead of aborting")
		paranoia = flag.Bool("paranoia", false, "run every cell with the per-cycle invariant checker (slow, never memoized)")
		jobTO    = flag.Duration("job-timeout", 0, "wall-time deadline per cell (0 = none)")
		hangTO   = flag.Duration("hang-timeout", 0, "kill a cell whose simulation makes no progress for this long (0 = none)")
		retries  = flag.Int("retries", 0, "re-attempts for a panicking cell before it fails for good")
		reproDir = flag.String("repro-dir", "", "write a repro bundle (spec + metadata) for every permanently failed cell")

		fabricN   = flag.Int("fabric", 0, "dispatch cells to this many teaworker processes (0 = in-process); crashed or hung workers are absorbed (see DESIGN.md §16)")
		fabricCmd = flag.String("fabric-worker", "", "worker command for -fabric (default: teaworker beside this binary, else from PATH)")

		list = flag.Bool("list", false, "print the experiment registry (name, title, description) and exit")

		sets stringList
	)
	flag.Var(&sets, "set", "spec patch section.field=value (repeatable; with -config or alone)")
	flag.Parse()

	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "teaexp: -resume requires -journal")
		return 2
	}

	if *list {
		// The catalog in registration order, one experiment per line; the
		// daemon serves the same registry, so this is the service catalog too.
		for _, e := range tea.Experiments() {
			fmt.Printf("%-18s %s\n%-18s   %s\n", e.Name, e.Title, "", e.Description)
		}
		return 0
	}

	outFmt := tea.FormatText
	if *jsonFlag {
		outFmt = tea.FormatJSON
	} else {
		f, err := tea.ParseFormat(*format)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		outFmt = f
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Record every allocation, not one per 512 KiB: the profile then
		// counts allocations exactly. Set before any simulation work.
		runtime.MemProfileRate = 1
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// SIGINT cancels the batch cooperatively: in-flight cells finish, the
	// journal stays consistent, and the process exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One engine for the whole invocation: `-exp all` shares every
	// (workload, budget, scale) baseline across figures.
	var engOpts []tea.EngineOption
	if *jobTO != 0 || *hangTO != 0 || *retries != 0 || *reproDir != "" {
		engOpts = append(engOpts, tea.WithPolicy(tea.JobPolicy{
			Timeout:      *jobTO,
			HangTimeout:  *hangTO,
			Retries:      *retries,
			RetryBackoff: 100 * time.Millisecond,
			ReproDir:     *reproDir,
		}))
	}
	var resumed []tea.JournalRecord
	if *journal != "" {
		st, err := store.Open(*journal, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer st.Close()
		if *resume {
			resumed = st.Records()
			fmt.Fprintf(os.Stderr, "[journal: read %d cells (%d corrupt records dropped)]\n", len(resumed), st.Stats().Corrupt)
		}
		engOpts = append(engOpts, tea.WithJournal(st))
	}
	if *progress {
		engOpts = append(engOpts, tea.WithProgress(func(ev tea.JobEvent) {
			switch ev.Phase {
			case tea.JobStarted:
				fmt.Fprintf(os.Stderr, "[job %d] %s/%s started\n", ev.Index, ev.Job.Workload, ev.Job.Cfg.Mode)
			case tea.JobDone:
				status := "done"
				if ev.Err != nil {
					status = "failed: " + ev.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "[job %d] %s/%s %s in %v\n", ev.Index, ev.Job.Workload, ev.Job.Cfg.Mode,
					status, ev.Wall.Round(time.Millisecond))
			case tea.JobAttemptFailed:
				msg, _, _ := strings.Cut(ev.Err.Error(), "\n") // a panic's stack follows its first line
				fmt.Fprintf(os.Stderr, "[job %d] %s/%s attempt %d failed (after %v backoff): %s\n", ev.Index,
					ev.Job.Workload, ev.Job.Cfg.Mode, ev.Attempt, ev.Backoff, msg)
			}
		}))
	}
	// -fabric scales the cell matrix across worker processes: the
	// coordinator plugs in below the engine's memoization/journal layer as
	// its RunFunc, so resume journals, policy, and -partial quarantine all
	// compose with remote execution unchanged.
	if *fabricN > 0 {
		fcfg := fabric.Config{
			Workers:          *fabricN,
			HeartbeatTimeout: *hangTO, // 0 selects the fabric default (30s)
			Log:              os.Stderr,
		}
		if *fabricCmd != "" {
			fcfg.WorkerCmd = strings.Fields(*fabricCmd)
		}
		coord, err := fabric.New(fcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			st := coord.Stats()
			coord.Close()
			fmt.Fprintf(os.Stderr, "[fabric: %d workers (%d live), %d cells in %d shards; %d crashes, %d hangs, %d requeued, %d recovered, %d quarantined, %d fallback]\n",
				st.Workers, st.Live, st.Dispatched, st.Shards, st.Crashes, st.Hangs, st.Requeues, st.Recovered, st.Quarantined, st.Fallbacks)
			if st.Collapsed {
				fmt.Fprintln(os.Stderr, "[fabric: worker pool collapsed; remaining cells ran in-process]")
			}
		}()
		engOpts = append(engOpts, tea.WithRunFunc(coord.RunFunc(nil)))
	}
	eng := tea.NewEngine(*workers, engOpts...)
	if len(resumed) > 0 {
		seeded := eng.SeedJournal(resumed)
		fmt.Fprintf(os.Stderr, "[journal: resumed %d cells]\n", seeded)
	}
	opts := tea.ExpOptions{
		MaxInstructions: *n,
		Scale:           *scale,
		Engine:          eng,
		Intervals:       *ivals,
		IntervalPeriod:  *ivPeriod,
		Partial:         *partial,
		Paranoia:        *paranoia,
	}
	if *wl != "" {
		opts.Workloads = strings.Split(*wl, ",")
		if err := workloads.CheckUnique(opts.Workloads); err != nil {
			fmt.Fprintf(os.Stderr, "teaexp: %v\n", err)
			return 2
		}
	}

	var traces *traceFiles
	if *traceOut != "" {
		traces = &traceFiles{base: *traceOut, seen: map[string]int{}}
		defer traces.closeAll()
		opts.TraceOut = traces.open
	}

	ids := []string{*exp}
	switch {
	case *config != "" || len(sets) > 0:
		// A custom machine point replaces -exp: it dispatches through the
		// registry like every other experiment.
		if *config != "" {
			s, err := spec.Load(*config)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			opts.Spec = &s
		}
		opts.Set = sets
		ids = []string{"custom"}
	case *exp == "all":
		ids = []string{"tables", "fig5", "fig6", "fig7", "fig8", "fig9", "fig9big", "fig10", "table3", "prefetchonly", "wide16"}
	}
	errRows := 0
	for _, id := range ids {
		start := time.Now()
		rep, err := runExp(ctx, id, outFmt, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, context.Canceled) {
				if *journal != "" {
					fmt.Fprintln(os.Stderr, "[interrupted: journal flushed; rerun with -resume to continue]")
				}
				return 130
			}
			return 1
		}
		if rep != nil {
			errRows += rep.ErrorRows()
		}
		// In text mode the timing line is part of the report stream (and of
		// the CLI's stable output); in data formats it moves to stderr so
		// stdout stays parseable.
		timing := fmt.Sprintf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Second))
		if outFmt == tea.FormatText {
			fmt.Print(timing)
		} else {
			fmt.Fprint(os.Stderr, timing)
		}
	}
	if traces != nil {
		if err := traces.closeAll(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	ms := eng.MemoStats()
	fmt.Fprintf(os.Stderr, "[memo: %d simulated, %d seeded, %d hits]\n", ms.Entries-ms.Seeded, ms.Seeded, ms.Hits)
	// Under -partial, quarantined cells were deliberately tolerated but must
	// still be visible to scripts: succeed, distinctly.
	if *partial && errRows > 0 {
		fmt.Fprintf(os.Stderr, "[partial: %d quarantined error rows]\n", errRows)
		return 3
	}
	return 0
}

// traceFiles opens one JSONL trace file per experiment cell, deduplicating
// names when the same (workload, mode) appears in several cells (Fig. 10's
// ablations, `-exp all`).
type traceFiles struct {
	base  string
	seen  map[string]int
	files []*os.File
	err   error
}

// open returns the trace writer for one cell (nil after a failure, which is
// reported at closeAll).
func (t *traceFiles) open(workload string, mode tea.Mode) io.Writer {
	if t.err != nil {
		return nil
	}
	key := workload + "-" + mode.String()
	t.seen[key]++
	name := fmt.Sprintf("%s-%s.jsonl", t.base, key)
	if c := t.seen[key]; c > 1 {
		name = fmt.Sprintf("%s-%s-%d.jsonl", t.base, key, c)
	}
	f, err := os.Create(name)
	if err != nil {
		t.err = err
		return nil
	}
	t.files = append(t.files, f)
	return f
}

// closeAll closes every opened trace file and reports the first error
// (including a failed open). Safe to call twice.
func (t *traceFiles) closeAll() error {
	for _, f := range t.files {
		if err := f.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.files = nil
	return t.err
}

// runExp dispatches one experiment through the tea registry and renders its
// report to stdout. The returned report lets the caller count quarantined
// error rows for the -partial exit code ("tables" has none and returns nil).
func runExp(ctx context.Context, id string, f tea.Format, opts tea.ExpOptions) (*tea.Report, error) {
	if id == "tables" {
		if f != tea.FormatText {
			fmt.Fprintln(os.Stderr, "[tables are text-only; skipped]")
			return nil, nil
		}
		printConfigTables()
		return nil, nil
	}
	rep, err := tea.RunExperiment(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	return rep, rep.Write(os.Stdout, f)
}

func printConfigTables() {
	fmt.Print(`Table I (baseline core, as modelled):
  3.2GHz, 8-wide fetch/decode/rename/issue, 12-cycle frontend
  512-entry ROB, 352-entry RS, 16-wide retire
  12 execution ports (6 ALU, 2 LD, 2 LD/ST, 2 FP), 400 physical registers
  256-entry load queue, 192-entry store queue
  64KB-class TAGE-SC-L (12 tables, loop predictor, statistical corrector)
  history-based indirect predictor, RAS, 4k-entry BTB, 128-entry fetch queue
  L1I 32KB/8w 4cyc, L1D 48KB/12w 4cyc, LLC 1MB/16w 18cyc, 64B lines
  DDR4-2400R: 2 channels, 4 bank groups x 4 banks, tRP-tCL-tRCD 16-16-16

Table II (TEA thread structures, as modelled):
  H2P table: 256 entries, 8-way, 3-bit counters, decay every 50k instrs
  Fill Buffer: 512 uops; Backward Dataflow Walk: ~500 cycles
  Source List: register bit-vector + 16 memory addresses
  Block Cache: 512 entries (+256 empty-block tags), 32-bit masks,
    mask reset every 500k instrs, 8 uops/cycle fetch
  TEA frontend: 9-cycle latency, shadow RAT, shadow fetch queue
  Backend partition: 192 RS + 192 physical registers while active
  Store data cache: 16 half-lines (32B); late limit: 4
`)
}
