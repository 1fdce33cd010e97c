package tea

// Failure-handling tests: deadlines, the hang watchdog, panic retry, and
// quarantine repro bundles (the store-backed kill/resume contract is in
// resume_test.go).
// Everything drives the engine through the runFn seam so the failure modes
// are exact and the tests are fast.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teasim/tea/spec"
)

// stubResult is a deterministic fake simulation outcome: same (workload,
// config) in, same Result out, like the real simulator.
func stubResult(w string, c Config) Result {
	return Result{
		Workload:     w,
		Mode:         c.Mode,
		Cycles:       uint64(len(w))*1000 + uint64(c.Mode) + 1,
		Instructions: c.MaxInstructions,
	}
}

func TestJobDeadline(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{Timeout: 30 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		<-ctx.Done() // a cell that never finishes on its own
		return Result{}, ctx.Err()
	}
	_, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil || !strings.Contains(err.Error(), "job deadline exceeded") {
		t.Fatalf("err = %v, want a job deadline error", err)
	}
	if !strings.Contains(err.Error(), "bfs/tea") {
		t.Errorf("deadline error does not name the cell: %v", err)
	}
}

func TestHangWatchdogKillsStalledJob(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{HangTimeout: 60 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if c.Heartbeat == nil {
			t.Error("policy with HangTimeout did not install a heartbeat")
			return Result{}, errors.New("no heartbeat")
		}
		c.Heartbeat.Beat(1) // one beat, then wedge
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	_, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil || !strings.Contains(err.Error(), "no heartbeat progress") {
		t.Fatalf("err = %v, want a hang watchdog error", err)
	}
}

func TestHangWatchdogSparesAdvancingJob(t *testing.T) {
	e := NewEngine(1, WithPolicy(JobPolicy{HangTimeout: 80 * time.Millisecond}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		// Slow but alive: beats arrive well inside the hang timeout for
		// longer than the timeout itself.
		for i := uint64(1); i <= 8; i++ {
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			case <-time.After(20 * time.Millisecond):
				c.Heartbeat.Beat(i)
			}
		}
		return stubResult(w, c), nil
	}
	res, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err != nil {
		t.Fatalf("advancing job was killed: %v", err)
	}
	if res[0].Cycles == 0 {
		t.Error("advancing job returned no result")
	}
}

func TestRetryRecoversFlakyPanic(t *testing.T) {
	var mu sync.Mutex
	var fails []JobEvent
	e := NewEngine(1,
		WithPolicy(JobPolicy{Retries: 3, RetryBackoff: time.Millisecond}),
		WithProgress(func(ev JobEvent) {
			if ev.Phase == JobAttemptFailed {
				mu.Lock()
				fails = append(fails, ev)
				mu.Unlock()
			}
		}))
	var attempts atomic.Int32
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if attempts.Add(1) < 3 {
			panic("transient corruption")
		}
		return stubResult(w, c), nil
	}
	res, err := e.Map([]Job{{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err != nil {
		t.Fatalf("retried job still failed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if !reflect.DeepEqual(res[0], stubResult("bfs", Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1})) {
		t.Errorf("unexpected result after retry: %+v", res[0])
	}
	// Every failed attempt reaches the progress callback.
	mu.Lock()
	defer mu.Unlock()
	if len(fails) != 2 {
		t.Fatalf("got %d %s events, want 2 (one per panicking attempt)", len(fails), JobAttemptFailed)
	}
	for i, ev := range fails {
		id := fmt.Sprintf("%s/%s@%s", ev.Job.Workload, ev.Job.Cfg.Mode, specHashOf(ev.Job.Cfg))
		if !strings.HasPrefix(id, "bfs/tea@") || strings.HasSuffix(id, "unresolved") {
			t.Errorf("failure %d names cell %q, want bfs/tea@<spec>", i, id)
		}
		if ev.Err == nil || !strings.Contains(ev.Err.Error(), "transient corruption") {
			t.Errorf("failure %d err = %v, want the panic value", i, ev.Err)
		}
		if ev.Index != 0 {
			t.Errorf("failure %d index = %d, want 0", i, ev.Index)
		}
	}
	// Retried cells are distinguishable from first failures: the attempt
	// number and cumulative backoff ride on the event.
	if fails[0].Attempt != 1 || fails[0].Backoff != 0 {
		t.Errorf("first failure carries attempt=%d backoff=%v, want 1/0",
			fails[0].Attempt, fails[0].Backoff)
	}
	if fails[1].Attempt != 2 || fails[1].Backoff < time.Millisecond {
		t.Errorf("second failure carries attempt=%d backoff=%v, want 2 with accrued backoff",
			fails[1].Attempt, fails[1].Backoff)
	}
}

func TestPanicErrorCarriesStackAndIdentity(t *testing.T) {
	e := NewEngine(1)
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		panic("boom in the scheduler")
	}
	_, err := e.Map([]Job{{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err == nil {
		t.Fatal("panicking job returned nil error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError in the chain", err)
	}
	if pe.Workload != "mcf" || pe.Mode != ModeTEA {
		t.Errorf("PanicError identity = %s/%s, want mcf/tea", pe.Workload, pe.Mode)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError stack missing or not a goroutine dump: %q", pe.Stack)
	}
	if len(pe.Stack) > panicStackLimit+32 {
		t.Errorf("stack not bounded: %d bytes", len(pe.Stack))
	}
	msg := err.Error()
	if !strings.Contains(msg, "panic in mcf/tea (spec ") || !strings.Contains(msg, "boom in the scheduler") {
		t.Errorf("error message missing identity or panic value: %s", firstLine(msg))
	}
}

func TestQuarantineWritesLoadableReproBundle(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(2, WithPolicy(JobPolicy{ReproDir: dir}))
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if w == "bad" {
			panic("corrupted cell")
		}
		return stubResult(w, c), nil
	}
	jobs := []Job{
		{Workload: "bfs", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "bad", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: Config{Mode: ModeTEA, MaxInstructions: 1000, Scale: 1}},
	}
	results, errs, err := e.MapPartial(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells failed: %v, %v", errs[0], errs[2])
	}
	if results[0].Cycles == 0 || results[2].Cycles == 0 {
		t.Error("healthy cells returned no results alongside the quarantined one")
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "repro bundle: ") {
		t.Fatalf("quarantined cell error = %v, want a repro bundle pointer", errs[1])
	}

	// The bundle must round-trip: the written spec loads and validates like
	// any -config input, and its fingerprint matches the bundle name.
	matches, err := filepath.Glob(filepath.Join(dir, "bad-tea-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specPath, metaPath string
	for _, m := range matches {
		if strings.HasSuffix(m, ".meta.json") {
			metaPath = m
		} else {
			specPath = m
		}
	}
	if specPath == "" || metaPath == "" {
		t.Fatalf("bundle incomplete, got %v", matches)
	}
	loaded, err := spec.Load(specPath)
	if err != nil {
		t.Fatalf("bundle spec does not load: %v", err)
	}
	if !strings.Contains(specPath, loaded.FingerprintString()) {
		t.Errorf("bundle name %s does not carry the spec fingerprint %s", specPath, loaded.FingerprintString())
	}
	metaJSON, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Workload string `json:"workload"`
		Mode     string `json:"mode"`
		MaxInstr uint64 `json:"max_instr"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		t.Fatalf("bundle metadata does not parse: %v", err)
	}
	if meta.Workload != "bad" || meta.Mode != "tea" || meta.MaxInstr != 1000 {
		t.Errorf("bundle metadata = %+v, want the failed cell's identity", meta)
	}
	if !strings.Contains(meta.Error, "corrupted cell") {
		t.Errorf("bundle metadata error = %q, want the panic value", meta.Error)
	}
}

func TestPartialExperimentRendersErrorRows(t *testing.T) {
	e := NewEngine(2)
	e.runFn = func(ctx context.Context, w string, c Config) (Result, error) {
		if w == "mcf" && c.Mode == ModeTEA {
			panic("quarantine me")
		}
		return stubResult(w, c), nil
	}
	opts := ExpOptions{Workloads: []string{"bfs", "mcf"}, Engine: e, Partial: true}
	rep, err := RunExperiment(context.Background(), "fig5", opts)
	if err != nil {
		t.Fatalf("partial experiment aborted: %v", err)
	}
	rows := rep.Rows().([]SpeedupRow)
	if rows[0].Err != "" || rows[0].Speedup == 0 {
		t.Errorf("healthy row polluted: %+v", rows[0])
	}
	if rows[1].Err == "" || !strings.Contains(rows[1].Err, "quarantine me") {
		t.Errorf("quarantined row not annotated: %+v", rows[1])
	}
	var sb strings.Builder
	if err := rep.Write(&sb, FormatText); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ERROR: ") {
		t.Errorf("text report does not mark the quarantined row:\n%s", out)
	}
	if !strings.Contains(out, "geomean") && !strings.Contains(out, "Geomean") {
		t.Errorf("text report lost its aggregate footer:\n%s", out)
	}
}
