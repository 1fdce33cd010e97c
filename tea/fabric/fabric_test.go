package fabric

// The fabric's chaos tests run the whole pool in-process: each "worker" is a
// goroutine running the real RunWorker loop over real pipes, with the real
// faultinject harness armed — only process death is simulated (the
// injector's Die override severs the worker's pipes and exits its goroutine
// instead of SIGKILLing the test binary). Process-level SIGKILL chaos runs
// in scripts/chaos_smoke.sh against real teaworker binaries.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"teasim/internal/faultinject"
	"teasim/tea"
	"teasim/tea/spec"
)

// stubRun is a deterministic fake simulation: same cell in, same result out,
// like the real simulator.
func stubRun(_ context.Context, w string, cfg tea.Config) (tea.Result, error) {
	fp, err := cfg.SpecFingerprint()
	if err != nil {
		return tea.Result{}, err
	}
	return tea.Result{
		Workload:     w,
		Mode:         cfg.Mode,
		SpecHash:     fmt.Sprintf("%016x", fp),
		Cycles:       uint64(len(w))*1000 + uint64(slices.Index(spec.Presets(), cfg.Mode.String()))*7 + cfg.MaxInstructions,
		Instructions: cfg.MaxInstructions,
		IPC:          1.25,
	}, nil
}

var errWorkerKilled = errors.New("worker killed")

// inProc spawns fabric workers as goroutines over pipes.
type inProc struct {
	faults string                               // TEASIM_FAULTS-syntax spec, parsed per worker id
	runFor func(id int, die func()) tea.RunFunc // nil = stubRun
}

func (p *inProc) spawn(id int, journal string) (*Proc, error) {
	cr, cw := io.Pipe() // coordinator -> worker
	wr, ww := io.Pipe() // worker -> coordinator
	kill := func() {
		cr.CloseWithError(errWorkerKilled)
		wr.CloseWithError(errWorkerKilled)
	}
	// die is the in-process stand-in for SIGKILL: sever the worker's pipes
	// (the coordinator observes the same abrupt stream end a dead process
	// produces) and terminate the worker goroutine mid-flight.
	die := func() {
		ww.CloseWithError(errWorkerKilled)
		cr.CloseWithError(errWorkerKilled)
		runtime.Goexit()
	}
	var inj *faultinject.Injector
	if p.faults != "" {
		var err error
		inj, err = faultinject.Parse(p.faults, id)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			inj.SetDie(die)
		}
	}
	run := tea.RunFunc(stubRun)
	if p.runFor != nil {
		run = p.runFor(id, die)
	}
	go func() {
		RunWorker(WorkerOptions{
			In: cr, Out: ww, Log: io.Discard,
			Journal:    journal,
			HBInterval: 20 * time.Millisecond,
			Faults:     inj,
			Run:        run,
		})
		ww.Close()
	}()
	return &Proc{In: cw, Out: wr, Kill: kill}, nil
}

// newTestFabric builds a coordinator over an in-process pool with fast
// chaos-friendly timings; override fields via mutate.
func newTestFabric(t *testing.T, pool *inProc, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Workers:          3,
		ShardSize:        2,
		HeartbeatTimeout: 400 * time.Millisecond,
		RetryBackoff:     5 * time.Millisecond,
		Dir:              t.TempDir(),
		Spawn:            pool.spawn,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// matrixJobs is a small Fig-8-like cell matrix.
func matrixJobs() []tea.Job {
	var jobs []tea.Job
	for _, w := range []string{"bfs", "mcf", "xz"} {
		for _, m := range []tea.Mode{tea.ModeBaseline, tea.ModeTEA, tea.ModeBranchRunahead} {
			jobs = append(jobs, tea.Job{Workload: w, Cfg: tea.Config{Mode: m, MaxInstructions: 1000, Scale: 1}})
		}
	}
	return jobs
}

// cleanResults runs the same jobs through a plain in-process engine.
func cleanResults(t *testing.T, jobs []tea.Job) []tea.Result {
	t.Helper()
	e := tea.NewEngine(4, tea.WithRunFunc(stubRun))
	res, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWireConfigRoundTrip(t *testing.T) {
	custom, err := spec.Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	if err := custom.Set("frontend.width=10"); err != nil {
		t.Fatal(err)
	}
	cfgs := []tea.Config{
		{Mode: tea.ModeBaseline, MaxInstructions: 1000, Scale: 1},
		{Mode: tea.ModeTEA, MaxInstructions: 5000, Scale: 2,
			Set: []string{"companion.tea.only_loops=true", "companion.tea.no_masks=true"}},
		{Mode: tea.ModeTEA, MaxInstructions: 100,
			Set: []string{"companion.tea.no_mem=true", "companion.tea.disable_early_flush=true"}},
		{Mode: tea.ModeWide16, MaxInstructions: 1000, Scale: 1},
		{Mode: tea.ModeTEABigEngine, MaxInstructions: 1000},
		{Mode: tea.ModeTEA, Set: []string{
			"companion.tea.block_cache_sets=16", "companion.tea.fill_buf_size=256",
			"companion.tea.h2p_decay_period=10000", "companion.tea.max_lead_blocks=4",
			"frontend.fetch_queue_size=64"}},
		{Mode: tea.ModeTEA, Set: []string{"companion.tea.fill_buf_size=1024"}},
		{Mode: tea.ModeBaseline, Spec: &custom, MaxInstructions: 2000},
		{Mode: "ldbp", MaxInstructions: 1000, Scale: 1}, // a zoo preset, by name
	}
	for i, cfg := range cfgs {
		wantFP, err := cfg.SpecFingerprint()
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		wc, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("cfg %d: encode: %v", i, err)
		}
		if cfg.Spec == nil && len(wc.Spec) != 0 {
			t.Errorf("cfg %d: preset %s sent its spec over the wire", i, cfg.Mode)
		}
		// Through the wire: the config must survive JSON framing.
		b, err := json.Marshal(wc)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		var back WireConfig
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got, err := DecodeConfig(back)
		if err != nil {
			t.Fatalf("cfg %d: decode: %v", i, err)
		}
		gotFP, err := got.SpecFingerprint()
		if err != nil {
			t.Fatalf("cfg %d: decoded fingerprint: %v", i, err)
		}
		if gotFP != wantFP {
			t.Errorf("cfg %d: fingerprint changed across the wire: %016x != %016x", i, gotFP, wantFP)
		}
		if got.Mode != cfg.Mode {
			t.Errorf("cfg %d: mode label changed across the wire: %v != %v", i, got.Mode, cfg.Mode)
		}
		if got.MaxInstructions != cfg.MaxInstructions || got.Scale != cfg.Scale {
			t.Errorf("cfg %d: budget changed across the wire", i)
		}
	}
	// Non-memoizable configs must refuse the wire.
	if _, err := EncodeConfig(tea.Config{Mode: tea.ModeTEA, CoSim: true}); err == nil {
		t.Error("EncodeConfig accepted a non-memoizable config")
	}
}

func TestFabricMatchesInProcessByteForByte(t *testing.T) {
	pool := &inProc{}
	c := newTestFabric(t, pool, nil)
	e := tea.NewEngine(6, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := matrixJobs()
	got, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := cleanResults(t, jobs)
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Errorf("fabric results differ from a single-process run:\nfabric: %s\nclean:  %s", gb, wb)
	}
	st := c.Stats()
	if st.Dispatched != len(jobs) || st.Crashes != 0 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want %d dispatched and no faults", st, len(jobs))
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashBeforeResultRecoversFromJournal(t *testing.T) {
	var runs atomic.Int64
	pool := &inProc{
		faults: "crash-before-result@1:1",
		runFor: func(int, func()) tea.RunFunc {
			return func(ctx context.Context, w string, cfg tea.Config) (tea.Result, error) {
				runs.Add(1)
				return stubRun(ctx, w, cfg)
			}
		},
	}
	c := newTestFabric(t, pool, nil)
	e := tea.NewEngine(6, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := matrixJobs()
	got, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := cleanResults(t, jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("results after crash differ from a clean run:\ngot:  %+v\nwant: %+v", got, want)
	}
	st := c.Stats()
	if st.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", st.Crashes)
	}
	if st.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1 (the journaled-but-unreported cell)", st.Recovered)
	}
	// The recovered cell was NOT re-simulated: its fsync'd journal record
	// stood in for the lost result frame.
	if n := runs.Load(); n != int64(len(jobs)) {
		t.Errorf("worker simulations = %d, want exactly %d (no re-run of the recovered cell)", n, len(jobs))
	}
}

func TestTornJournalWriteRequeues(t *testing.T) {
	var runs atomic.Int64
	pool := &inProc{
		faults: "torn-journal@1:1",
		runFor: func(int, func()) tea.RunFunc {
			return func(ctx context.Context, w string, cfg tea.Config) (tea.Result, error) {
				runs.Add(1)
				return stubRun(ctx, w, cfg)
			}
		},
	}
	c := newTestFabric(t, pool, nil)
	e := tea.NewEngine(6, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := matrixJobs()
	got, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := cleanResults(t, jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("results after torn write differ from a clean run:\ngot:  %+v\nwant: %+v", got, want)
	}
	st := c.Stats()
	if st.Crashes != 1 || st.Recovered != 0 || st.Requeues < 1 {
		t.Errorf("stats = %+v, want 1 crash, 0 recovered (torn record must not be trusted), >=1 requeue", st)
	}
	// The torn cell ran twice: once on the dying worker (its record torn),
	// once after requeue. Nothing else re-ran.
	if n := runs.Load(); n != int64(len(jobs))+1 {
		t.Errorf("worker simulations = %d, want %d (one re-run of the torn cell)", n, len(jobs)+1)
	}
}

func TestHangWatchdogKillsStalledWorker(t *testing.T) {
	pool := &inProc{faults: "stall@1"}
	c := newTestFabric(t, pool, nil)
	e := tea.NewEngine(6, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := matrixJobs()
	got, err := e.Map(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := cleanResults(t, jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("results after hang differ from a clean run:\ngot:  %+v\nwant: %+v", got, want)
	}
	st := c.Stats()
	if st.Hangs != 1 {
		t.Errorf("Hangs = %d, want 1 (frozen-beat heartbeat frames must not count as progress)", st.Hangs)
	}
	if st.Crashes != 1 || st.Requeues < 1 {
		t.Errorf("stats = %+v, want the hung worker killed and its cells requeued", st)
	}
}

func TestPoolCollapseFallsBackInProcess(t *testing.T) {
	pool := &inProc{faults: "crash-on-shard"} // every worker dies on its first shard
	c := newTestFabric(t, pool, func(cfg *Config) { cfg.QuarantineAfter = 10 })
	e := tea.NewEngine(6, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := matrixJobs()
	got, err := e.Map(jobs)
	if err != nil {
		t.Fatalf("collapse did not degrade gracefully: %v", err)
	}
	if want := cleanResults(t, jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("degraded results differ from a clean run:\ngot:  %+v\nwant: %+v", got, want)
	}
	st := c.Stats()
	if !st.Collapsed || !c.Degraded() {
		t.Errorf("stats = %+v, want a collapsed pool in degraded mode", st)
	}
	if st.Live != 0 || st.Crashes != 3 {
		t.Errorf("stats = %+v, want all 3 workers dead", st)
	}
	if st.Fallbacks == 0 {
		t.Error("no cells ran through the fallback after collapse")
	}
	// A degraded fabric keeps serving new submissions in-process.
	res, err := c.RunFunc(stubRun)(context.Background(), "sssp", tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1})
	if err != nil || res.Cycles == 0 {
		t.Errorf("post-collapse submission failed: %+v, %v", res, err)
	}
}

func TestToxicCellQuarantined(t *testing.T) {
	pool := &inProc{
		runFor: func(id int, die func()) tea.RunFunc {
			return func(ctx context.Context, w string, cfg tea.Config) (tea.Result, error) {
				if w == "poison" {
					die() // takes the whole worker down, like an OOM kill
				}
				return stubRun(ctx, w, cfg)
			}
		},
	}
	c := newTestFabric(t, pool, func(cfg *Config) {
		cfg.ShardSize = 1 // isolate the poison cell's blast radius
	})
	e := tea.NewEngine(4, tea.WithRunFunc(c.RunFunc(stubRun)))
	jobs := []tea.Job{
		{Workload: "bfs", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "poison", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}},
		{Workload: "mcf", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}},
	}
	results, errs, err := e.MapPartial(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells failed alongside the toxic one: %v, %v", errs[0], errs[2])
	}
	if results[0].Cycles == 0 || results[2].Cycles == 0 {
		t.Error("healthy cells returned no results")
	}
	var qe *QuarantineError
	if errs[1] == nil || !errors.As(errs[1], &qe) {
		t.Fatalf("toxic cell error = %v, want a *QuarantineError", errs[1])
	}
	if qe.Workload != "poison" || qe.Attempts < 2 {
		t.Errorf("quarantine = %+v, want the poison cell after >=2 distinct worker deaths", qe)
	}
	if !strings.Contains(qe.Error(), "quarantined") {
		t.Errorf("quarantine error message = %q", qe.Error())
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.Live < 1 {
		t.Error("quarantine did not stop the toxic cell before the pool collapsed")
	}
}

func TestEngineWatchdogFedByRemoteHeartbeats(t *testing.T) {
	// A slow-but-advancing remote cell must survive the ENGINE's hang
	// watchdog: the worker's heartbeat frames are relayed into the
	// Config.Heartbeat the engine installed, exactly like a local run.
	pool := &inProc{
		runFor: func(int, func()) tea.RunFunc {
			return func(ctx context.Context, w string, cfg tea.Config) (tea.Result, error) {
				for i := uint64(1); i <= 12; i++ {
					time.Sleep(25 * time.Millisecond)
					if cfg.Heartbeat != nil {
						cfg.Heartbeat.Beat(i * 1000)
					}
				}
				return stubRun(ctx, w, cfg)
			}
		},
	}
	c := newTestFabric(t, pool, nil)
	e := tea.NewEngine(2,
		tea.WithRunFunc(c.RunFunc(stubRun)),
		tea.WithPolicy(tea.JobPolicy{HangTimeout: 150 * time.Millisecond}))
	res, err := e.Map([]tea.Job{{Workload: "bfs", Cfg: tea.Config{Mode: tea.ModeTEA, MaxInstructions: 1000, Scale: 1}}})
	if err != nil {
		t.Fatalf("advancing remote cell was killed by the engine watchdog: %v", err)
	}
	if res[0].Cycles == 0 {
		t.Error("remote cell returned no result")
	}
}
