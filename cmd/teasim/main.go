// Command teasim runs one benchmark on the simulated core and prints its
// performance and precomputation statistics.
//
// Usage:
//
//	teasim -w bfs -mode tea -n 1000000
//	teasim -w mcf -mode baseline
//	teasim -w mcf -mode ldbp           # any registered preset (listed by -h)
//	teasim -w bfs -mode tea -speedup   # run the baseline too (in parallel)
//	teasim -w bfs -mode tea -paranoia  # per-cycle invariant checking (slow)
//	teasim -w bfs -mode tea -json -intervals            # machine-readable result
//	teasim -w bfs -mode tea -trace-out trace.jsonl -trace-start 60000 -trace-end 61000
//	teasim -w bfs -config machine.json                  # custom machine spec
//	teasim -w bfs -mode tea -set companion.tea.fill_buf_size=1024
//	teasim -w bfs -mode tea -set companion.tea.only_loops=true  # a Fig 10 ablation
//	teasim -list
//
// -config loads a full machine spec (see tea/spec and the preset goldens
// under tea/spec/testdata/specs); repeatable -set flags patch individual
// fields of the spec (or of the -mode preset when -config is absent). The
// Fig 10 ablations and the §V-B prefetch-only variant are the patches
// companion.tea.only_loops, no_masks, no_mem and disable_early_flush=true.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"teasim/tea"
	"teasim/tea/spec"
)

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// jsonOutput is the -json envelope: the run's result, plus the baseline and
// speedup when -speedup is set.
type jsonOutput struct {
	Result   tea.Result  `json:"result"`
	Baseline *tea.Result `json:"baseline,omitempty"`
	Speedup  float64     `json:"speedup,omitempty"` // cycles(baseline)/cycles(run)
}

func main() {
	var (
		workload = flag.String("w", "bfs", "workload name (see -list)")
		mode     = flag.String("mode", "tea", "machine preset: "+strings.Join(spec.Presets(), " | "))
		config   = flag.String("config", "", "machine spec JSON file (overrides -mode)")
		n        = flag.Uint64("n", 1_000_000, "max instructions to simulate (0 = to completion)")
		scale    = flag.Int("scale", 1, "workload input scale (0 = tiny)")
		cosim    = flag.Bool("cosim", false, "verify against the golden functional model")
		list     = flag.Bool("list", false, "list workloads and exit")
		paranoia = flag.Bool("paranoia", false, "run with the per-cycle invariant checker (slow)")
		speedup  = flag.Bool("speedup", false, "also run the baseline and report the speedup")
		workers  = flag.Int("workers", 0, "engine worker pool size (0 = TEASIM_WORKERS or GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "print the result as JSON (wall time goes to stderr)")
		ivals    = flag.Bool("intervals", false, "sample a per-interval time series into the result")
		ivPeriod = flag.Uint64("interval-period", 0, "interval sample period in retired instructions (0 = 10k)")
		traceOut = flag.String("trace-out", "", "write a JSONL event trace to this file")
		trStart  = flag.Uint64("trace-start", 0, "first traced cycle (with -trace-out)")
		trEnd    = flag.Uint64("trace-end", 0, "last traced cycle, 0 = unbounded (with -trace-out)")
		sets     stringList
	)
	flag.Var(&sets, "set", "spec patch section.field=value (repeatable)")
	flag.Parse()

	if *list {
		for _, name := range tea.Workloads() {
			flow := "complex"
			if tea.SimpleFlow(name) {
				flow = "simple"
			}
			fmt.Printf("%-12s %s control flow\n", name, flow)
		}
		return
	}

	cfg := tea.Config{
		Mode:            tea.Mode(*mode),
		Set:             sets,
		MaxInstructions: *n,
		Scale:           *scale,
		CoSim:           *cosim,
		Paranoia:        *paranoia,
		Intervals:       *ivals,
		IntervalPeriod:  *ivPeriod,
		TraceStart:      *trStart,
		TraceEnd:        *trEnd,
	}
	if *config != "" {
		s, err := spec.Load(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Spec = &s
	}
	// Resolve up front so a bad -mode, -config or -set fails with its own
	// message instead of surfacing mid-run.
	machine, err := cfg.ResolvedSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceTo = f
	}
	// Dispatch through the experiment engine: panic capture for free, and
	// with -speedup the baseline cell runs in parallel on multi-core hosts.
	eng := tea.NewEngine(*workers)
	jobs := []tea.Job{{Workload: *workload, Cfg: cfg}}
	if *speedup {
		jobs = append(jobs, tea.Job{Workload: *workload,
			Cfg: tea.Config{Mode: tea.ModeBaseline, MaxInstructions: *n, Scale: *scale}})
	}
	// SIGINT cancels the run cooperatively (exit 130) instead of tearing the
	// process down mid-cycle.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, err := eng.MapContext(ctx, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}
	el := time.Since(start)
	res := results[0]

	if *jsonOut {
		out := jsonOutput{Result: res}
		if len(results) > 1 {
			out.Baseline = &results[1]
			out.Speedup = float64(results[1].Cycles) / float64(res.Cycles)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sim wall time %v (%.2f Minstr/s)\n", el.Round(time.Millisecond),
			float64(res.Instructions)/el.Seconds()/1e6)
		return
	}

	fmt.Printf("workload      %s (%s)\n", res.Workload, res.Mode)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("cycles        %d\n", res.Cycles)
	fmt.Printf("IPC           %.3f\n", res.IPC)
	fmt.Printf("MPKI          %.2f (cond %d, target %d)\n", res.MPKI,
		res.CondMispredicts, res.IndMispredicts)
	if machine.Companion.Kind != spec.CompanionNone {
		fmt.Printf("accuracy      %.2f%%\n", 100*res.Accuracy)
		fmt.Printf("coverage      %.1f%% (covered %d, late %d, incorrect %d, uncovered %d)\n",
			100*res.Coverage, res.Covered, res.Late, res.Incorrect, res.Uncovered)
		fmt.Printf("saved/branch  %.1f cycles\n", res.AvgCyclesSaved)
		fmt.Printf("early flushes %d\n", res.EarlyFlushes)
		fmt.Printf("uop overhead  +%.1f%%\n", res.UopOverheadPct)
	}
	if len(results) > 1 {
		base := results[1]
		fmt.Printf("speedup       %+.1f%% (baseline %d cycles)\n",
			100*(float64(base.Cycles)/float64(res.Cycles)-1), base.Cycles)
	}
	fmt.Printf("sim wall time %v (%.2f Minstr/s)\n", el.Round(time.Millisecond),
		float64(res.Instructions)/el.Seconds()/1e6)
}
