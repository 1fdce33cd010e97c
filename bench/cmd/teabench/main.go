// Command teabench is the repository benchmark.
//
//	teabench run -workload W -seed S [-seconds N] [-trace 0|1] [-trace-dir DIR] [-o run.json]
//	teabench layers DIR
//	teabench compare A/ B/
//	teabench schema
//
// run measures one workload and prints, as the last line of its output, a
// JSON object with the run's check counts and its metrics: the end-to-end
// metrics, or with -trace 1 the per-layer ones. -o writes the full result
// with its machine fingerprint. layers prints a traced run's CPU time by
// layer; compare applies the benchmark's comparison rule to two directories
// of run.json files; schema prints BENCHMARK.json. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"teabench/internal/bench"
	"teabench/internal/stat"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: teabench run|layers|compare|schema ...")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = run(os.Args[2:])
	case "layers":
		if len(os.Args) != 3 {
			err = fmt.Errorf("usage: teabench layers DIR")
		} else {
			err = bench.Layers(os.Args[2], os.Stdout)
		}
	case "compare":
		err = compare(os.Args[2:])
	case "schema":
		var b []byte
		if b, err = bench.Schema(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	default:
		err = fmt.Errorf("unknown command %q (run, layers, compare, schema)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload: zoo-shootout, core-long, serve-mix or fabric-scale")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", bench.RunSeconds, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: spans, CPU profile and the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where a traced run writes spans.jsonl and cpu.pprof (default: a directory under the temp dir)")
	out := fs.String("o", "", "write the full result (run.json) here")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if *trace == 1 && *traceDir == "" {
		*traceDir = filepath.Join(os.TempDir(), fmt.Sprintf("teabench-trace-%s-%d", *workload, *seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench.Run(ctx, bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1, TraceDir: *traceDir, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "teabench: check failed:", f)
	}
	printed := map[string]bench.Value{}
	for _, m := range bench.Metrics() {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		if m.Layer == res.Trace {
			printed[m.Name] = v
		}
		if !m.Layer || res.Trace {
			fmt.Fprintf(os.Stderr, "%-32s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if res.Trace {
		fmt.Fprintln(os.Stderr, "teabench: spans and profile in", *traceDir)
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bench.Value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, printed})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// readRuns loads every run.json in dir.
func readRuns(dir string) ([]stat.Run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var runs []stat.Run
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var o bench.Outcome
		if err := json.Unmarshal(data, &o); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		r := stat.Run{Workload: o.Workload, Seed: o.Seed, Metrics: map[string]float64{}}
		for name, v := range o.Metrics {
			r.Metrics[name] = v.Value
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no run.json files in %s", dir)
	}
	return runs, nil
}

func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: teabench compare A/ B/")
	}
	a, err := readRuns(args[0])
	if err != nil {
		return err
	}
	b, err := readRuns(args[1])
	if err != nil {
		return err
	}
	var defs []stat.Def
	for _, m := range bench.Metrics() {
		defs = append(defs, m.Def)
	}
	rows, err := stat.Compare(defs, a, b)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-13s %-30s %5s %14s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "B median", "A sprd", "B sprd", "wins", "verdict")
	for _, r := range rows {
		fmt.Printf("%-13s %-30s %2d/%-2d %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A.N, r.B.N, r.A.Q1, r.A.Median, r.B.Median,
			100*r.A.Spread, 100*r.B.Spread, 100*r.WinFrac, r.Verdict)
		switch r.Verdict {
		case stat.Regression, stat.Unresolved, stat.Changed:
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairings regressed, changed or are unresolved", bad)
	}
	return nil
}
