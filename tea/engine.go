package tea

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teasim/internal/telemetry"
)

// Job is one (workload, configuration) cell of an experiment matrix.
type Job struct {
	Workload string
	Cfg      Config
}

// Engine dispatches experiment cells to a bounded worker pool. Results come
// back in job order regardless of scheduling, so a parallel run is
// byte-identical to a sequential one. The engine also memoizes every
// memoizable cell (Config.Memoizable) — keyed by the workload, the mode
// label, the resolved machine spec's fingerprint, and the run budget — so
// paired experiments (Fig. 8's TEA-vs-Runahead matrix, sensitivity sweeps,
// or a whole `teaexp -exp all` invocation sharing one engine) simulate each
// distinct machine point exactly once: shared baselines, and equally the
// default-valued cell every sensitivity sweep revisits.
//
// Persistence and cross-engine dedup are layered on the same memo key.
// WithCellCache resolves memo misses through a cell cache shared by any
// number of engines: a crash-safe result store (tea/store) first, so a
// killed suite resumes with only the missing cells, then another engine's
// in-flight run of the same cell, and every fresh result is written to the
// store. WithPolicy adds per-job deadlines, a no-progress hang watchdog fed
// by the simulation loop's cycle heartbeat, bounded retry for panicking
// jobs, and repro bundles for cells that fail permanently. MapPartial
// degrades failed cells to per-job errors instead of aborting the batch.
//
// A zero-value Engine is not usable; construct with NewEngine. Engines are
// safe for concurrent use and may be shared across experiments to widen the
// memoization scope.
type Engine struct {
	workers int

	// runFn is the simulation entry point (tea.RunContext unless WithRunFunc
	// or a test replaces it).
	runFn RunFunc

	mu     sync.Mutex
	memo   map[MemoKey]*memoEntry
	stats  MemoStats // every count but Entries
	policy JobPolicy
	cache  *CellCache

	pmu      sync.Mutex // serializes progress callbacks
	progress func(JobEvent)
}

// RunFunc is the engine's simulation entry point: it simulates one workload
// under one configuration. The default is RunContext; WithRunFunc replaces it
// for callers that layer extra result sources underneath the engine (the
// serve daemon's content-addressed store) or stub simulation in tests.
type RunFunc func(ctx context.Context, workload string, cfg Config) (Result, error)

// EngineOption configures an Engine at construction (NewEngine).
type EngineOption func(*Engine)

// WithPolicy sets the failure-handling policy for the engine's jobs.
func WithPolicy(p JobPolicy) EngineOption {
	return func(e *Engine) { e.policy = p }
}

// WithCellCache resolves the engine's memo misses through c (see runJob):
// engines sharing c simulate each memoizable cell once between them, and a
// cell c's store holds is not simulated at all.
func WithCellCache(c *CellCache) EngineOption {
	return func(e *Engine) { e.cache = c }
}

// WithProgress installs a callback invoked at the start and end of every job
// a Map or MapContext call runs, and after every failed attempt. Callbacks
// are serialized — they may safely write to a terminal or mutate shared
// state — and run on worker goroutines, so they should return quickly.
func WithProgress(fn func(JobEvent)) EngineOption {
	return func(e *Engine) { e.progress = fn }
}

// WithRunFunc replaces the engine's simulation entry point (default
// RunContext). The engine's memoization, policy, and cell cache layer on top
// of whatever fn returns.
func WithRunFunc(fn RunFunc) EngineOption {
	return func(e *Engine) { e.runFn = fn }
}

// JobPhase tags a progress notification.
type JobPhase int

// Job phases.
const (
	// JobStarted fires when a worker claims the job.
	JobStarted JobPhase = iota
	// JobDone fires when the job finishes (Err reports its outcome).
	JobDone
	// JobAttemptFailed fires after each failed attempt, before any retry:
	// Err, Attempt and Backoff tell a retried cell from a first failure.
	JobAttemptFailed
)

// String returns the phase name.
func (p JobPhase) String() string {
	switch p {
	case JobStarted:
		return "started"
	case JobDone:
		return "done"
	case JobAttemptFailed:
		return "attempt-failed"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// JobEvent is one progress notification from a Map run.
type JobEvent struct {
	Index int           // job index in the Map slice
	Job   Job           // the cell being simulated
	Phase JobPhase      // started, done or attempt-failed
	Err   error         // outcome (JobDone) or the attempt's failure
	Wall  time.Duration // wall time, JobDone only (near-zero for memo hits)
	// Attempt is the failed attempt's 1-based number and Backoff the retry
	// backoff the cell accrued before it (JobAttemptFailed only).
	Attempt int
	Backoff time.Duration
}

// notify delivers a progress event, serialized under pmu.
func (e *Engine) notify(ev JobEvent) {
	e.pmu.Lock()
	if e.progress != nil {
		e.progress(ev)
	}
	e.pmu.Unlock()
}

// JobPolicy configures failure handling for a job attempt. The zero value
// disables everything: no deadline, no watchdog, no retries, no bundles —
// exactly the pre-policy engine behavior.
type JobPolicy struct {
	// Timeout bounds one attempt's wall time (0 = none). A timed-out attempt
	// fails with a deadline error; timeouts are not retried (simulations are
	// deterministic — a second attempt would time out too).
	Timeout time.Duration
	// HangTimeout arms a no-progress watchdog (0 = none): an attempt whose
	// cycle heartbeat does not advance for this long is cancelled. Distinct
	// from Timeout: a slow-but-advancing cell survives, a wedged one dies in
	// HangTimeout regardless of how long the suite has run.
	HangTimeout time.Duration
	// Retries bounds re-attempts after a panic. Simulations are
	// deterministic, so retries exist for quarantine and diagnosis — the
	// final failure still surfaces, and every failed attempt reaches
	// WithProgress as a JobAttemptFailed event.
	Retries int
	// RetryBackoff is the wait before the first retry, doubling per attempt
	// (0 = immediate).
	RetryBackoff time.Duration
	// ReproDir, when set, receives a repro bundle for every permanently
	// failed cell: the resolved machine spec as <workload>-<mode>-<fp>.json
	// (loadable with -config) plus a .meta.json with the workload, budget,
	// and failure.
	ReproDir string
}

// memoEntry latches one result. The mutex serializes workers wanting the
// same cell; unlike a sync.Once, a cancelled attempt can decline to latch,
// so a resumed run still simulates the cell.
type memoEntry struct {
	mu   sync.Mutex
	done bool
	res  Result
	err  error
}

// DefaultWorkers returns the worker count used when none is specified: the
// TEASIM_WORKERS environment variable if set and positive, else GOMAXPROCS.
func DefaultWorkers() int {
	if v := os.Getenv("TEASIM_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// NewEngine builds an engine with the given worker-pool bound
// (workers <= 0 selects DefaultWorkers) and the given options applied:
//
//	eng := tea.NewEngine(0, tea.WithPolicy(policy), tea.WithCellCache(tea.NewCellCache(st)))
func NewEngine(workers int, opts ...EngineOption) *Engine {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	e := &Engine{
		workers: workers,
		runFn:   RunContext,
		memo:    make(map[MemoKey]*memoEntry),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Workers reports the engine's worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// MemoStats reports how the engine resolved its jobs. Entries counts the
// distinct machine points in its memo, done or in flight, and Hits the jobs
// served from an existing entry. Each memoizable job that missed the memo
// was a store hit (StoreHits), rode another engine's in-flight run of the
// cell (Coalesced, through a shared CellCache), or ran. Simulated counts
// the engine's simulation attempts, memoizable or not: a retried cell
// counts each attempt.
type MemoStats struct {
	Entries   int
	Hits      int
	StoreHits int
	Coalesced int
	Simulated int
}

// MemoStats snapshots the memoization counters.
func (e *Engine) MemoStats() MemoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Entries = len(e.memo)
	return st
}

// count increments one of the engine's counters.
func (e *Engine) count(n *int) {
	e.mu.Lock()
	*n++
	e.mu.Unlock()
}

// CellStore persists finished cells for a CellCache; tea/store's Store
// implements it.
type CellStore interface {
	Get(MemoKey) (Result, bool)
	Put(JournalRecord) error
}

// CellCache is what engines share beyond their memos: a store of finished
// cells, and the cells some engine is running right now. Safe for
// concurrent use.
type CellCache struct {
	st      CellStore // nil = no persistence
	mu      sync.Mutex
	flights map[MemoKey]*flight
}

// flight is one cell an engine runs for every engine waiting on it.
type flight struct {
	done chan struct{} // closed when the leader returns
	res  Result
	err  error
	// ok reports an outcome for waiters. It stays false when the leader
	// gave up, its own context cancelled, or panicked outside its attempts.
	ok bool
}

// NewCellCache returns a cache over st; a nil st persists nothing, and
// engines sharing the cache still coalesce identical in-flight cells.
func NewCellCache(st CellStore) *CellCache {
	return &CellCache{st: st, flights: make(map[MemoKey]*flight)}
}

// get looks a cell up in the store.
func (c *CellCache) get(key MemoKey) (Result, bool) {
	if c.st == nil {
		return Result{}, false
	}
	return c.st.Get(key)
}

// PanicError is a job attempt that died by panic, carrying the cell's
// identity and a bounded goroutine stack so the failure is diagnosable
// post-hoc (the stack would otherwise unwind into nothing).
type PanicError struct {
	Workload string
	Mode     Mode
	SpecHash string // resolved spec fingerprint, or "unresolved"
	Val      any    // the panic value
	Stack    []byte // bounded debug.Stack() capture
}

// panicStackLimit bounds the retained stack: enough for the interesting
// frames, small enough to embed in errors and bundle metadata.
const panicStackLimit = 8 * 1024

// Error formats the panic with its cell identity; the stack follows on
// subsequent lines.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic in %s/%s (spec %s): %v\n%s",
		p.Workload, p.Mode, p.SpecHash, p.Val, p.Stack)
}

// errJobHang marks a watchdog kill (wrapped with context.Cause).
var errJobHang = errors.New("no heartbeat progress (hang watchdog)")

// errJobDeadline marks a per-job deadline expiry.
var errJobDeadline = errors.New("job deadline exceeded")

// specHashOf renders a job's resolved spec fingerprint for error messages.
func specHashOf(cfg Config) string {
	if fp, err := cfg.SpecFingerprint(); err == nil {
		return fmt.Sprintf("%016x", fp)
	}
	return "unresolved"
}

// firstLine truncates an error message to its first line for error rows.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// runAttempt executes one attempt of a job under the policy's deadline and
// hang watchdog, capturing panics with their stack.
func (e *Engine) runAttempt(ctx context.Context, j Job, p JobPolicy) (res Result, err error) {
	jobCtx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeoutCause(jobCtx, p.Timeout, errJobDeadline)
		defer cancel()
	}
	if p.HangTimeout > 0 {
		hb := &telemetry.Heartbeat{}
		j.Cfg.Heartbeat = hb
		wctx, wcancel := context.WithCancelCause(jobCtx)
		jobCtx = wctx
		stop := watchHang(wctx, hb, p.HangTimeout, wcancel)
		defer stop()
	}
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > panicStackLimit {
				stack = append(stack[:panicStackLimit:panicStackLimit], "... (stack truncated)"...)
			}
			err = &PanicError{
				Workload: j.Workload, Mode: j.Cfg.Mode,
				SpecHash: specHashOf(j.Cfg), Val: r, Stack: stack,
			}
		}
	}()
	e.count(&e.stats.Simulated)
	res, err = e.runFn(jobCtx, j.Workload, j.Cfg)
	if err != nil && jobCtx.Err() != nil && ctx.Err() == nil {
		// The job-local deadline or watchdog fired (not a batch
		// cancellation): name the policy failure rather than the bare
		// context error.
		err = fmt.Errorf("job %s/%s: %w", j.Workload, j.Cfg.Mode, context.Cause(jobCtx))
	}
	return res, err
}

// watchHang polls the heartbeat and cancels the attempt once it stalls for
// timeout. Returns a stop func releasing the watchdog goroutine.
func watchHang(ctx context.Context, hb *telemetry.Heartbeat, timeout time.Duration, cancel context.CancelCauseFunc) func() {
	done := make(chan struct{})
	go func() {
		tick := timeout / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		lastBeats, _ := hb.Load()
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case now := <-t.C:
				beats, _ := hb.Load()
				if beats != lastBeats {
					lastBeats, lastChange = beats, now
					continue
				}
				if now.Sub(lastChange) >= timeout {
					cancel(errJobHang)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// retryable reports whether a failed attempt is worth re-running: only
// panics (deterministic failures are retried for quarantine/diagnosis, and
// the retry may still reproduce a corrupted-state panic differently under
// paranoia checking). Deadlines, hangs, and ordinary simulation errors are
// final.
func retryable(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// runResilient runs job i under the engine's policy: attempt, bounded retry
// with backoff for panics, and a repro bundle once the cell fails
// permanently. Every failed attempt is reported as a JobAttemptFailed event.
func (e *Engine) runResilient(ctx context.Context, i int, j Job) (Result, error) {
	e.mu.Lock()
	p := e.policy
	e.mu.Unlock()
	var err error
	var res Result
	var cumBackoff time.Duration
	for attempt := 0; ; attempt++ {
		res, err = e.runAttempt(ctx, j, p)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			// Batch cancelled: stop immediately, no retries or bundles.
			return Result{}, err
		}
		e.notify(JobEvent{Index: i, Job: j, Phase: JobAttemptFailed, Err: err,
			Attempt: attempt + 1, Backoff: cumBackoff})
		if attempt >= p.Retries || !retryable(err) {
			break
		}
		if p.RetryBackoff > 0 {
			backoff := p.RetryBackoff << uint(attempt)
			cumBackoff += backoff
			select {
			case <-ctx.Done():
				return Result{}, err
			case <-time.After(backoff):
			}
		}
	}
	if p.ReproDir != "" {
		if path, werr := writeReproBundle(p.ReproDir, j, err); werr == nil {
			err = fmt.Errorf("%w (repro bundle: %s)", err, path)
		} else {
			err = fmt.Errorf("%w (repro bundle failed: %v)", err, werr)
		}
	}
	return Result{}, err
}

// reproMeta is the sidecar metadata written next to a repro bundle's spec.
type reproMeta struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Spec     string `json:"spec"`
	MaxInstr uint64 `json:"max_instr"`
	Scale    int    `json:"scale"`
	Error    string `json:"error"`
}

// writeReproBundle captures a permanently failed cell: the resolved machine
// spec (directly loadable with `teasim -config` / `teaexp -config`) plus a
// .meta.json naming the workload, budget, and failure. Returns the spec path.
func writeReproBundle(dir string, j Job, jobErr error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	machine, err := j.Cfg.ResolvedSpec()
	if err != nil {
		return "", fmt.Errorf("spec unresolvable: %w", err)
	}
	base := fmt.Sprintf("%s-%s-%s", j.Workload, j.Cfg.Mode, machine.FingerprintString())
	specPath := filepath.Join(dir, base+".json")
	if err := os.WriteFile(specPath, machine.Indent(), 0o644); err != nil {
		return "", err
	}
	meta := reproMeta{
		Workload: j.Workload,
		Mode:     j.Cfg.Mode.String(),
		Spec:     machine.FingerprintString(),
		MaxInstr: j.Cfg.MaxInstructions,
		Scale:    j.Cfg.Scale,
		Error:    jobErr.Error(),
	}
	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".meta.json"), metaJSON, 0o644); err != nil {
		return "", err
	}
	return specPath, nil
}

// runJob executes job i and decides its outcome. A memoizable cell is, in
// this order: a memo hit (an entry of this engine, done or in flight; a new
// entry is the job's slot in its batch's slab, see mapRun), a store hit, a
// ride on another engine's flight for the same cell, or a flight of its
// own (resolve). Cells that are not memoizable (Config.Memoizable:
// telemetry, co-simulation, idle-skip debugging, paranoia) always simulate,
// as do cells whose spec fails to resolve — the direct run surfaces the
// resolution error with full context.
func (e *Engine) runJob(ctx context.Context, i int, j Job, slab []memoEntry) (Result, error) {
	key, ok := MemoKeyOf(j.Workload, j.Cfg)
	if !ok {
		return e.runResilient(ctx, i, j)
	}
	e.mu.Lock()
	ent := e.memo[key]
	if ent == nil {
		ent = &slab[i]
		e.memo[key] = ent
	} else {
		e.stats.Hits++
	}
	e.mu.Unlock()
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.done {
		return ent.res, ent.err
	}
	res, err := e.resolve(ctx, i, j, key)
	if err != nil && ctx.Err() != nil {
		// Batch cancelled mid-cell: report but do not latch, so a resumed
		// run (or a later Map on this engine) still simulates the cell.
		return res, err
	}
	ent.res, ent.err, ent.done = res, err, true
	return res, err
}

// resolve decides a memo miss through the cell cache: the store, then
// another engine's flight for the cell, then a flight of its own. Without
// a cache the memo is the only dedup, and the cell runs.
func (e *Engine) resolve(ctx context.Context, i int, j Job, key MemoKey) (Result, error) {
	c := e.cache
	if c == nil {
		return e.runResilient(ctx, i, j)
	}
	for {
		if res, ok := c.get(key); ok {
			e.count(&e.stats.StoreHits)
			return res, nil
		}
		c.mu.Lock()
		f := c.flights[key]
		if f == nil {
			f = &flight{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			return e.lead(ctx, i, j, key, f)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if f.ok {
			e.count(&e.stats.Coalesced)
			return f.res, f.err
		}
		// The leader gave up, which is no outcome for this job: look the
		// cell up again, and take it over if no one else has.
	}
}

// lead runs the cell of flight f, with the engine's whole policy (deadline,
// watchdog, retries), for every engine waiting on it. It checks the store
// again first: another flight may have stored the cell and ended since the
// caller's miss. A fresh result is written before the flight ends, so no
// later lookup misses it, and a failed write is the cell's error: a run
// that cannot persist fails loudly rather than silently losing
// resumability.
func (e *Engine) lead(ctx context.Context, i int, j Job, key MemoKey, f *flight) (Result, error) {
	c := e.cache
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	if res, ok := c.get(key); ok {
		e.count(&e.stats.StoreHits)
		f.res, f.ok = res, true
		return res, nil
	}
	res, err := e.runResilient(ctx, i, j)
	if err == nil && c.st != nil {
		err = c.st.Put(JournalRecord{MemoKey: key, Result: res})
	}
	f.res, f.err, f.ok = res, err, err == nil || ctx.Err() == nil
	return res, err
}

// Map runs every job on the worker pool and returns the results in job
// order. Workers pull jobs from a shared index, so long cells do not hold up
// the queue. A panic inside a job is captured (with its stack) and surfaced
// as that job's error. On error the lowest-index failure is returned
// (deterministically, independent of worker scheduling) and remaining jobs
// are cancelled best-effort.
func (e *Engine) Map(jobs []Job) ([]Result, error) {
	return e.MapContext(context.Background(), jobs)
}

// MapContext is Map with cooperative cancellation: once ctx is done,
// workers stop claiming jobs, in-flight jobs finish, and the context's
// error is returned alongside the partial results — completed cells keep
// their values at their job indices (and are in the cell cache's store, if
// there is one), so a killed suite loses nothing it finished. A context
// that is already done returns (nil, ctx.Err()) without running anything.
func (e *Engine) MapContext(ctx context.Context, jobs []Job) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, errs := e.mapRun(ctx, jobs, true)
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("tea: job %d (%s/%s): %w", i, jobs[i].Workload, jobs[i].Cfg.Mode, err)
		}
	}
	return results, nil
}

// MapPartial is MapContext with quarantine semantics: a failing cell does
// not abort the batch. Every job runs (subject to ctx); per-job errors come
// back in errs (indexed like jobs), and err is non-nil only for context
// cancellation. Callers render failed cells as annotated error rows instead
// of losing the suite.
func (e *Engine) MapPartial(ctx context.Context, jobs []Job) (results []Result, errs []error, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	results, errs = e.mapRun(ctx, jobs, false)
	return results, errs, ctx.Err()
}

// mapRun is the shared worker-pool core: results and errors land at their
// job indices. With stopOnFail, workers stop claiming jobs past the
// lowest-index failure (Map semantics); without it every job runs
// (MapPartial semantics).
func (e *Engine) mapRun(ctx context.Context, jobs []Job, stopOnFail bool) ([]Result, []error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	// One memo entry slot per job, since a job adds at most one entry. The
	// memo map points into the slab, so it is never resized.
	slab := make([]memoEntry, len(jobs))

	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			if ctx.Err() != nil {
				break
			}
			if err := e.runJobInto(ctx, i, j, slab, &results[i], &errs[i]); err != nil && stopOnFail {
				break
			}
		}
		return results, errs
	}

	var next, failed atomic.Int64
	failed.Store(int64(len(jobs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || int64(i) > failed.Load() {
					return
				}
				if err := e.runJobInto(ctx, i, jobs[i], slab, &results[i], &errs[i]); err != nil && stopOnFail {
					// Record the failure index; later jobs are skipped but
					// earlier in-flight ones finish, keeping error selection
					// deterministic.
					for {
						cur := failed.Load()
						if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runJobInto runs one job with progress notification, storing the outcome
// in place. Panics are captured (with stacks) inside runAttempt; the
// recover here is a backstop for faults outside the attempt path.
func (e *Engine) runJobInto(ctx context.Context, i int, j Job, slab []memoEntry, res *Result, errp *error) (err error) {
	e.notify(JobEvent{Index: i, Job: j, Phase: JobStarted})
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			*errp = err
		}
		e.notify(JobEvent{Index: i, Job: j, Phase: JobDone, Err: *errp, Wall: time.Since(start)})
	}()
	*res, err = e.runJob(ctx, i, j, slab)
	*errp = err
	return err
}
