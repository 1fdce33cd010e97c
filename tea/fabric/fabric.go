package fabric

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"teasim/internal/faultinject"
	"teasim/internal/telemetry"
	"teasim/tea"
)

// Config configures a Coordinator. The zero value selects every default.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// WorkerCmd is the worker command argv (default: a `teaworker` binary
	// next to this executable, else "teaworker" from PATH). The coordinator
	// appends "-journal <dir>", naming the worker's result store, and sets
	// TEASIM_WORKER_ID in the environment.
	WorkerCmd []string
	// ShardSize bounds how many cells ride in one shard frame (default 4).
	// Cells in a shard run sequentially on the worker; concurrency comes
	// from the pool.
	ShardSize int
	// HeartbeatTimeout arms the no-progress watchdog (default 30s; <0
	// disables): a worker with assigned cells whose heartbeat count stops
	// advancing for this long is killed and its cells recovered or
	// requeued. Frames arriving with a frozen beat count do NOT count as
	// progress — a wedged simulation keeps chattering.
	HeartbeatTimeout time.Duration
	// QuarantineAfter quarantines a cell once this many workers died while
	// running it (default 2): one dead worker is bad luck, two is evidence
	// the cell kills workers. Workers are never respawned, so each death is
	// a distinct worker.
	QuarantineAfter int
	// RetryBackoff is the delay before a cell's first requeue, doubling per
	// subsequent death (default 100ms).
	RetryBackoff time.Duration
	// Dir holds one result store directory per worker, worker-<id>
	// (default: a temp dir removed on Close).
	Dir string
	// Log receives coordinator diagnostics (default io.Discard).
	Log io.Writer
	// Spawn replaces process spawning (tests run workers in-process over
	// pipes). nil = spawn WorkerCmd.
	Spawn SpawnFunc
}

// SpawnFunc starts worker id, storing completed cells in the result store
// directory journal.
type SpawnFunc func(id int, journal string) (*Proc, error)

// Proc is one spawned worker's handles. Kill must be idempotent and
// uncatchable (SIGKILL for processes); Wait reaps the worker after death and
// may be nil.
type Proc struct {
	In   io.WriteCloser
	Out  io.ReadCloser
	Kill func()
	Wait func() error
}

// Stats counts the coordinator's life so far.
type Stats struct {
	Workers     int  // configured pool size
	Live        int  // workers still alive
	Dispatched  int  // cells sent to workers (re-dispatches count again)
	Shards      int  // shard frames sent
	Crashes     int  // worker deaths observed (including hang kills)
	Hangs       int  // workers killed by the no-progress watchdog
	Requeues    int  // cells re-dispatched after a worker death
	Recovered   int  // cells recovered from a dead worker's store
	Quarantined int  // cells given up on (QuarantineAfter workers died)
	Fallbacks   int  // cells run through the fallback RunFunc
	Collapsed   bool // the whole pool died; running degraded in-process
}

// QuarantineError marks a cell the fabric gave up on: QuarantineAfter
// workers died while running it. It flows through the engine's error path
// like any job failure, so `-partial` runs render it as an ERROR row
// instead of losing the suite.
type QuarantineError struct {
	Workload string
	Mode     tea.Mode
	Attempts int // dispatches that ended in a worker death, each on a distinct worker
	Cause    string
}

func (q *QuarantineError) Error() string {
	return fmt.Sprintf("fabric: %s/%s quarantined after %d failed dispatches on %d workers: %s",
		q.Workload, q.Mode, q.Attempts, q.Attempts, q.Cause)
}

// outcome is one cell's final disposition.
type outcome struct {
	res      tea.Result
	err      error
	collapse bool // pool collapsed before the cell ran; caller falls back
}

// cell is one in-flight submission. The requeue fields are only touched on
// the sequential death→backoff→redispatch path (a cell is active on at most
// one worker), so they need no lock.
type cell struct {
	id        int
	key       tea.MemoKey // recovers the cell from a dead worker's store
	wire      WireCell
	hb        *telemetry.Heartbeat // engine watchdog pass-through (may be nil)
	done      chan outcome         // buffered 1
	delivered atomic.Bool
	attempts  int // dispatches that ended in a worker death, each a distinct worker
}

// worker is one pool member as the coordinator sees it.
type worker struct {
	id      int
	proc    *Proc
	out     *frameWriter
	journal string

	mu           sync.Mutex
	active       map[int]*cell
	beats        map[int]uint64
	lastProgress time.Time
	dead         bool
}

// Coordinator owns a worker pool and dispatches cells to it. Construct with
// New; plug into an engine with RunFunc. Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	dir    string
	ownDir bool

	ctx       context.Context
	cancel    context.CancelFunc
	submit    chan *cell
	idle      chan *worker
	collapsed chan struct{}
	wg        sync.WaitGroup
	nextID    atomic.Int64
	nextShard atomic.Int64

	mu       sync.Mutex
	live     int
	degraded bool
	closed   bool
	st       Stats
	workers  []*worker
}

// DefaultWorkerCmd locates the worker binary: `teaworker` beside the current
// executable, else bare "teaworker" resolved from PATH at spawn time.
func DefaultWorkerCmd() []string {
	if exe, err := os.Executable(); err == nil {
		p := filepath.Join(filepath.Dir(exe), "teaworker")
		if _, err := os.Stat(p); err == nil {
			return []string{p}
		}
	}
	return []string{"teaworker"}
}

// New builds a coordinator and spawns its worker pool. Workers that fail to
// spawn are logged and skipped; New fails only when none spawn.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 4
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if len(cfg.WorkerCmd) == 0 {
		cfg.WorkerCmd = DefaultWorkerCmd()
	}
	c := &Coordinator{
		cfg:       cfg,
		dir:       cfg.Dir,
		submit:    make(chan *cell, 256),
		idle:      make(chan *worker, cfg.Workers),
		collapsed: make(chan struct{}),
	}
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "teafabric-*")
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
		c.dir, c.ownDir = dir, true
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	spawn := cfg.Spawn
	if spawn == nil {
		spawn = c.spawnProc
	}
	for i := 1; i <= cfg.Workers; i++ {
		journal := filepath.Join(c.dir, fmt.Sprintf("worker-%d", i))
		proc, err := spawn(i, journal)
		if err != nil {
			fmt.Fprintf(cfg.Log, "fabric: worker %d failed to spawn: %v\n", i, err)
			continue
		}
		w := &worker{
			id:           i,
			proc:         proc,
			out:          &frameWriter{w: proc.In},
			journal:      journal,
			active:       make(map[int]*cell),
			beats:        make(map[int]uint64),
			lastProgress: time.Now(),
		}
		c.workers = append(c.workers, w)
		c.live++
		c.idle <- w
		c.wg.Add(2)
		go c.reader(w)
		go c.monitor(w)
	}
	c.st.Workers = cfg.Workers
	if c.live == 0 {
		c.cancel()
		if c.ownDir {
			os.RemoveAll(c.dir)
		}
		return nil, fmt.Errorf("fabric: no workers spawned (cmd %v)", cfg.WorkerCmd)
	}
	c.wg.Add(1)
	go c.dispatcher()
	return c, nil
}

// spawnProc is the default SpawnFunc: one worker process on stdin/stdout
// pipes, stderr forwarded to the coordinator log, TEASIM_WORKER_ID set so
// faultinject @worker selectors address it.
func (c *Coordinator) spawnProc(id int, journal string) (*Proc, error) {
	argv := append(append([]string{}, c.cfg.WorkerCmd...), "-journal", journal)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", faultinject.EnvWorkerID, id))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &Proc{
		In:   stdin,
		Out:  stdout,
		Kill: func() { cmd.Process.Kill() },
		Wait: cmd.Wait,
	}, nil
}

// RunFunc returns a tea.RunFunc backed by this fabric, for tea.WithRunFunc
// or serve.Config.RunFunc. Non-memoizable configs (telemetry, co-sim,
// paranoia, fast-path ablations — anything that cannot cross the wire) and
// every cell after pool collapse run through fallback (nil = tea.RunContext)
// in-process.
func (c *Coordinator) RunFunc(fallback tea.RunFunc) tea.RunFunc {
	if fallback == nil {
		fallback = tea.RunContext
	}
	return func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		// Unmemoizable cells and unresolvable specs run in-process; the
		// latter surface the resolution error with full context there.
		key, ok := tea.MemoKeyOf(workload, cfg)
		if !ok || c.Degraded() {
			c.countFallback()
			return fallback(ctx, workload, cfg)
		}
		wc, err := EncodeConfig(cfg)
		if err != nil {
			c.countFallback()
			return fallback(ctx, workload, cfg)
		}
		cl := &cell{
			id:   int(c.nextID.Add(1)),
			key:  key,
			hb:   cfg.Heartbeat,
			done: make(chan outcome, 1),
		}
		cl.wire = WireCell{ID: cl.id, Workload: workload, Cfg: wc}
		select {
		case c.submit <- cl:
		case <-c.collapsed:
			c.countFallback()
			return fallback(ctx, workload, cfg)
		case <-ctx.Done():
			return tea.Result{}, ctx.Err()
		}
		select {
		case o := <-cl.done:
			if o.collapse {
				c.countFallback()
				return fallback(ctx, workload, cfg)
			}
			return o.res, o.err
		case <-ctx.Done():
			// Abandon the cell; a late delivery parks in the buffered done
			// channel and is garbage collected with it.
			return tea.Result{}, ctx.Err()
		}
	}
}

// Degraded reports whether the pool has collapsed and the fabric is routing
// everything through the fallback.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Live = c.live
	return st
}

func (c *Coordinator) countFallback() {
	c.mu.Lock()
	c.st.Fallbacks++
	c.mu.Unlock()
}

// Close shuts the pool down: workers get EOF on stdin (clean exit), then a
// kill, and the coordinator's goroutines drain. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	workers := c.workers
	c.mu.Unlock()
	for _, w := range workers {
		w.proc.In.Close()
	}
	c.cancel()
	for _, w := range workers {
		w.proc.Kill()
	}
	c.wg.Wait()
	if c.ownDir {
		os.RemoveAll(c.dir)
	}
	return nil
}

// dispatcher pulls submitted cells, batches them into shards, and assigns
// each shard to a live idle worker. After pool collapse it degrades to
// delivering collapse outcomes so no submitter is left hanging.
func (c *Coordinator) dispatcher() {
	defer c.wg.Done()
	for {
		var first *cell
		select {
		case first = <-c.submit:
		case <-c.collapsed:
			c.drainCollapsed()
			return
		case <-c.ctx.Done():
			return
		}
		cells := []*cell{first}
	gather:
		for len(cells) < c.cfg.ShardSize {
			select {
			case cl := <-c.submit:
				cells = append(cells, cl)
			default:
				break gather
			}
		}
		var w *worker
		for w == nil {
			select {
			case cand := <-c.idle:
				cand.mu.Lock()
				if !cand.dead {
					w = cand
				}
				cand.mu.Unlock()
			case <-c.collapsed:
				for _, cl := range cells {
					c.deliver(cl, outcome{collapse: true})
				}
				c.drainCollapsed()
				return
			case <-c.ctx.Done():
				return
			}
		}
		c.assign(w, cells)
	}
}

// drainCollapsed keeps answering cells that raced into the submit queue
// around the moment of collapse, until Close.
func (c *Coordinator) drainCollapsed() {
	for {
		select {
		case cl := <-c.submit:
			c.deliver(cl, outcome{collapse: true})
		case <-c.ctx.Done():
			return
		}
	}
}

// assign registers the cells on the worker and sends the shard frame. On a
// send failure the worker is dying; whichever of this path and the death
// path removes a cell from the active map owns requeueing it.
func (c *Coordinator) assign(w *worker, cells []*cell) {
	shard := int(c.nextShard.Add(1))
	f := Frame{T: frameShard, Shard: shard}
	w.mu.Lock()
	for _, cl := range cells {
		w.active[cl.id] = cl
		w.beats[cl.id] = 0
		f.Cells = append(f.Cells, cl.wire)
	}
	w.lastProgress = time.Now()
	w.mu.Unlock()
	c.mu.Lock()
	c.st.Shards++
	c.st.Dispatched += len(cells)
	c.mu.Unlock()
	fmt.Fprintf(c.cfg.Log, "fabric: shard %d (%d cells) -> worker %d\n", shard, len(cells), w.id)
	if err := w.out.send(f); err != nil {
		for _, cl := range c.takeActive(w, cells) {
			c.requeue(cl, err)
		}
	}
}

// takeActive removes and returns the given cells still registered on the
// worker (the death path may have claimed some already).
func (c *Coordinator) takeActive(w *worker, cells []*cell) []*cell {
	w.mu.Lock()
	defer w.mu.Unlock()
	var taken []*cell
	for _, cl := range cells {
		if w.active[cl.id] == cl {
			delete(w.active, cl.id)
			taken = append(taken, cl)
		}
	}
	return taken
}

// reader consumes one worker's output stream: heartbeats feed the progress
// clock (and the engine's own hang watchdog through the cell's Heartbeat),
// results resolve cells, done frames return the worker to the idle pool.
// Stream end — clean or not — is the worker's death.
func (c *Coordinator) reader(w *worker) {
	defer c.wg.Done()
	in := newFrameReader(w.proc.Out)
	for {
		f, err := in.next()
		if err != nil {
			c.workerDied(w, err)
			return
		}
		switch f.T {
		case frameHB:
			w.mu.Lock()
			cl := w.active[f.ID]
			advanced := f.Beats > w.beats[f.ID]
			if advanced {
				w.beats[f.ID] = f.Beats
				w.lastProgress = time.Now()
			}
			w.mu.Unlock()
			if advanced && cl != nil && cl.hb != nil {
				cl.hb.Beat(f.Cycle)
			}
		case frameResult:
			w.mu.Lock()
			cl := w.active[f.ID]
			delete(w.active, f.ID)
			w.lastProgress = time.Now()
			w.mu.Unlock()
			if cl == nil {
				break // duplicate or abandoned cell
			}
			switch {
			case f.Err != "":
				c.deliver(cl, outcome{err: fmt.Errorf("fabric worker %d: %s", w.id, f.Err)})
			case f.Res != nil:
				c.deliver(cl, outcome{res: *f.Res})
			default:
				c.deliver(cl, outcome{err: fmt.Errorf("fabric worker %d: empty result frame", w.id)})
			}
		case frameDone:
			w.mu.Lock()
			w.lastProgress = time.Now()
			dead := w.dead
			w.mu.Unlock()
			if !dead {
				c.idle <- w // cap == pool size: never blocks
			}
		}
	}
}

// monitor is the per-worker no-progress watchdog: a worker with assigned
// cells whose heartbeat stops advancing for HeartbeatTimeout is killed; the
// death path then recovers or requeues its cells.
func (c *Coordinator) monitor(w *worker) {
	defer c.wg.Done()
	if c.cfg.HeartbeatTimeout <= 0 {
		return
	}
	tick := c.cfg.HeartbeatTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case now := <-t.C:
			w.mu.Lock()
			hung := !w.dead && len(w.active) > 0 &&
				now.Sub(w.lastProgress) >= c.cfg.HeartbeatTimeout
			w.mu.Unlock()
			if hung {
				c.mu.Lock()
				c.st.Hangs++
				c.mu.Unlock()
				fmt.Fprintf(c.cfg.Log, "fabric: worker %d hung (no progress for %v), killing\n",
					w.id, c.cfg.HeartbeatTimeout)
				w.proc.Kill() // reader observes EOF -> workerDied
				return
			}
		}
	}
}

// workerDied handles one worker's death: recover completed-but-unreported
// cells from its store, requeue the rest, and flip the fabric into degraded
// mode when the last worker goes.
func (c *Coordinator) workerDied(w *worker, cause error) {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	orphans := make([]*cell, 0, len(w.active))
	for _, cl := range w.active {
		orphans = append(orphans, cl)
	}
	w.active = make(map[int]*cell)
	w.mu.Unlock()
	w.proc.Kill()
	if w.proc.Wait != nil {
		go w.proc.Wait()
	}

	c.mu.Lock()
	closed := c.closed
	c.live--
	collapsed := c.live == 0 && !closed
	if collapsed {
		c.degraded = true
		c.st.Collapsed = true
	}
	if !closed {
		c.st.Crashes++
	}
	c.mu.Unlock()
	if closed {
		return
	}
	fmt.Fprintf(c.cfg.Log, "fabric: worker %d died (%v), %d cells orphaned\n", w.id, cause, len(orphans))
	if collapsed {
		close(c.collapsed)
	}

	// A cell the worker finished and stored but never reported is not
	// re-simulated: the fsync'd record (checksummed, memo-keyed) is
	// recovered as the cell's result. Torn or corrupt lines fail
	// verification and are dropped, so those cells requeue instead.
	st, err := openWorkerStore(w.journal)
	if err != nil {
		fmt.Fprintf(c.cfg.Log, "fabric: worker %d journal: %v\n", w.id, err)
	} else {
		defer st.Close()
		if n := st.Stats().Corrupt; n > 0 {
			fmt.Fprintf(c.cfg.Log, "fabric: worker %d journal: %d corrupt record(s) dropped\n", w.id, n)
		}
	}
	for _, cl := range orphans {
		if st != nil {
			if res, ok := st.Get(cl.key); ok {
				c.mu.Lock()
				c.st.Recovered++
				c.mu.Unlock()
				fmt.Fprintf(c.cfg.Log, "fabric: recovered %s/%s from worker %d journal\n",
					cl.key.Workload, cl.key.Mode, w.id)
				c.deliver(cl, outcome{res: res})
				continue
			}
		}
		c.requeue(cl, cause)
	}
}

// requeue re-dispatches a cell after a worker death, under exponential
// backoff and the quarantine limit.
func (c *Coordinator) requeue(cl *cell, cause error) {
	cl.attempts++
	c.mu.Lock()
	degraded := c.degraded
	c.mu.Unlock()
	if degraded {
		c.deliver(cl, outcome{collapse: true})
		return
	}
	if cl.attempts >= c.cfg.QuarantineAfter {
		c.mu.Lock()
		c.st.Quarantined++
		c.mu.Unlock()
		c.deliver(cl, outcome{err: &QuarantineError{
			Workload: cl.key.Workload,
			Mode:     cl.key.Mode,
			Attempts: cl.attempts,
			Cause:    cause.Error(),
		}})
		return
	}
	c.mu.Lock()
	c.st.Requeues++
	c.mu.Unlock()
	backoff := c.cfg.RetryBackoff << uint(cl.attempts-1)
	fmt.Fprintf(c.cfg.Log, "fabric: requeueing %s/%s in %v (attempt %d)\n",
		cl.key.Workload, cl.key.Mode, backoff, cl.attempts)
	if cl.hb != nil {
		// Keep the engine-side hang watchdog fed while the cell waits out
		// its backoff: requeue latency is fabric scheduling, not a wedge.
		cl.hb.Beat(0)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-time.After(backoff):
		case <-c.ctx.Done():
			c.deliver(cl, outcome{err: c.ctx.Err()})
			return
		}
		select {
		case c.submit <- cl:
		case <-c.collapsed:
			c.deliver(cl, outcome{collapse: true})
		case <-c.ctx.Done():
			c.deliver(cl, outcome{err: c.ctx.Err()})
		}
	}()
}

// deliver resolves a cell exactly once.
func (c *Coordinator) deliver(cl *cell, o outcome) {
	if cl.delivered.CompareAndSwap(false, true) {
		cl.done <- o
	}
}
