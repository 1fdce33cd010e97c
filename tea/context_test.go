package tea_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"teasim/tea"
)

func TestRunContextCancelledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := tea.RunContext(ctx, "mcf", tea.Config{Mode: tea.ModeTEA, MaxInstructions: 5_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Fatalf("cancelled run produced a result: %+v", res)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancelled run took %v, want immediate return", el)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// A budget far beyond what 50ms of simulation reaches.
	_, err := tea.RunContext(ctx, "mcf", tea.Config{Mode: tea.ModeTEA, MaxInstructions: 200_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := tea.Config{Mode: tea.ModeTEA, MaxInstructions: 60_000}
	a, err := tea.Run("bfs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tea.RunContext(context.Background(), "bfs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Run and RunContext disagree:\n%+v\n%+v", a, b)
	}
}

// TestTelemetryDeterminism: sampling intervals must not perturb the
// simulation — every core metric stays bit-identical.
func TestTelemetryDeterminism(t *testing.T) {
	cfg := tea.Config{Mode: tea.ModeTEA, MaxInstructions: 100_000}
	plain, err := tea.Run("bfs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Intervals = true
	cfg.IntervalPeriod = 5_000
	traced, err := tea.Run("bfs", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Intervals) == 0 {
		t.Fatal("no intervals sampled")
	}
	traced.Intervals = nil
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("telemetry changed the simulation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

func TestRunIntervalsPopulated(t *testing.T) {
	res, err := tea.Run("bfs", tea.Config{Mode: tea.ModeTEA, Scale: 1, MaxInstructions: 100_000,
		Intervals: true, IntervalPeriod: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 5 {
		t.Fatalf("got %d intervals for a 100k-instruction run at period 10k", len(res.Intervals))
	}
	var lastRetired uint64
	for i, iv := range res.Intervals {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
		if iv.Retired <= lastRetired {
			t.Fatalf("interval %d retired count not increasing: %d after %d", i, iv.Retired, lastRetired)
		}
		lastRetired = iv.Retired
		if iv.IPC <= 0 {
			t.Fatalf("interval %d IPC = %v", i, iv.IPC)
		}
		if len(iv.Metrics) == 0 {
			t.Fatalf("interval %d has no registry metrics", i)
		}
		if _, ok := iv.Metrics["tea.fillbuf_occupancy"]; !ok {
			t.Fatalf("interval %d missing TEA metrics: %v", i, iv.Metrics)
		}
	}
}

// TestDefaultExpOptions: RunExperiment fills every zero option, so zero
// options (but for the stub engine) run the full 17-kernel suite at 1M
// instructions and scale 1.
func TestDefaultExpOptions(t *testing.T) {
	var mu sync.Mutex
	var cells []tea.Config
	run := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		mu.Lock()
		cells = append(cells, cfg)
		mu.Unlock()
		return stubRun(ctx, workload, cfg)
	}
	if _, err := tea.RunExperiment(context.Background(), "fig6",
		tea.ExpOptions{Engine: tea.NewEngine(2, tea.WithRunFunc(run))}); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 17 {
		t.Fatalf("zero options ran %d cells, want the 17-kernel suite", len(cells))
	}
	for _, c := range cells {
		if c.MaxInstructions != 1_000_000 || c.Scale != 1 {
			t.Fatalf("cell ran at %d instructions, scale %d; want 1000000 and 1", c.MaxInstructions, c.Scale)
		}
	}
}

// TestOptionsConstructorMatchesLiteral: a literal that spells out every
// default renders the same bytes as the zero literal.
func TestOptionsConstructorMatchesLiteral(t *testing.T) {
	// sized makes a cell's numbers depend on its budget and scale, so a
	// default that differs between the two literals changes a byte.
	sized := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		res, err := stubRun(ctx, workload, cfg)
		res.Instructions = cfg.MaxInstructions
		res.Cycles += uint64(cfg.Scale)
		return res, err
	}
	render := func(o tea.ExpOptions) string {
		t.Helper()
		o.Engine = tea.NewEngine(2, tea.WithRunFunc(sized))
		rep, err := tea.RunExperiment(context.Background(), "fig6", o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.Write(&sb, tea.FormatJSON); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	zero := render(tea.ExpOptions{})
	spelled := render(tea.ExpOptions{MaxInstructions: 1_000_000, Scale: 1, Workloads: tea.Workloads()})
	if zero != spelled {
		t.Fatalf("zero and spelled-out defaults disagree:\n%s\n%s", zero, spelled)
	}
}
