package fabric

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"teasim/internal/faultinject"
	"teasim/internal/telemetry"
	"teasim/tea"
	"teasim/tea/store"
)

// WorkerOptions configures one worker loop (RunWorker). cmd/teaworker wires
// it to the process's stdin/stdout/stderr; the in-process chaos tests wire
// it to pipes so they can run a whole fabric inside one test binary.
type WorkerOptions struct {
	In  io.Reader // shard frames from the coordinator
	Out io.Writer // hello/hb/result/done frames back
	Log io.Writer // diagnostics (default os.Stderr)

	// Journal, when set, names a result store directory (tea/store) that
	// receives every completed memoizable cell *before* its result frame is
	// sent, so a worker killed between finishing a cell and reporting it
	// loses nothing: the coordinator recovers the result from the store on
	// worker death.
	Journal string

	// HBInterval is the heartbeat frame period while a cell runs
	// (default 200ms).
	HBInterval time.Duration

	// Faults is the chaos-injection harness (nil = no faults armed). The
	// worker consults the fault-point catalog documented in faultinject.
	Faults *faultinject.Injector

	// Run is the simulation entry point (default tea.RunContext; tests stub
	// it).
	Run tea.RunFunc
}

// RunWorker executes the worker side of the fabric protocol: read shard
// frames, simulate each cell (storing completed ones), stream heartbeats
// while simulating, and report results. It returns nil when the coordinator
// closes the input stream (clean shutdown) and an error on a protocol or I/O
// failure.
func RunWorker(o WorkerOptions) error {
	if o.Run == nil {
		o.Run = tea.RunContext
	}
	if o.HBInterval <= 0 {
		o.HBInterval = 200 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	out := &frameWriter{w: o.Out}
	var st *store.Store
	if o.Journal != "" {
		var err error
		if st, err = openWorkerStore(o.Journal); err != nil {
			return fmt.Errorf("fabric worker: %w", err)
		}
		defer st.Close()
	}
	if err := out.send(Frame{T: frameHello}); err != nil {
		return fmt.Errorf("fabric worker: hello: %w", err)
	}
	in := newFrameReader(o.In)
	for {
		f, err := in.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("fabric worker: %w", err)
		}
		if f.T != frameShard {
			continue // hello echoes, future frame types
		}
		o.Faults.Crash("crash-on-shard")
		for _, c := range f.Cells {
			runCell(&o, out, st, c)
		}
		if err := out.send(Frame{T: frameDone, Shard: f.Shard}); err != nil {
			return fmt.Errorf("fabric worker: report shard %d: %w", f.Shard, err)
		}
	}
}

// runCell simulates one cell and reports it. A cell-level failure (spec
// resolution, simulation error) is reported as a result frame with Err — the
// coordinator treats it as final, not as a worker fault. Panics are *not*
// recovered: a panicking simulation takes the worker down, which is exactly
// the crash path the coordinator is built to absorb (requeue elsewhere,
// quarantine if it keeps happening).
func runCell(o *WorkerOptions, out *frameWriter, st *store.Store, c WireCell) {
	cfg, err := DecodeConfig(c.Cfg)
	if err != nil {
		sendResult(out, c.ID, nil, err)
		return
	}
	hb := &telemetry.Heartbeat{}
	cfg.Heartbeat = hb

	// Stream heartbeat frames while the cell runs. The coordinator keys
	// progress on the beat count advancing, so a wedged simulation is
	// detected even though frames keep flowing. The delay-heartbeat fault
	// suppresses the sender entirely (a worker whose pipe stalled).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if !o.Faults.Fire("delay-heartbeat") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(o.HBInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					beats, cycle := hb.Load()
					if out.send(Frame{T: frameHB, ID: c.ID, Beats: beats, Cycle: cycle}) != nil {
						return
					}
				}
			}
		}()
	}

	o.Faults.Stall("stall")
	res, err := o.Run(context.Background(), c.Workload, cfg)
	close(stop)
	wg.Wait()

	if err == nil && st != nil {
		if key, ok := tea.MemoKeyOf(c.Workload, cfg); ok {
			if jerr := put(st, o.Journal, tea.JournalRecord{MemoKey: key, Result: res}, o.Faults); jerr != nil {
				fmt.Fprintf(o.Log, "fabric worker: journal %s/%s: %v\n", c.Workload, cfg.Mode, jerr)
			}
		}
	}
	o.Faults.Crash("crash-before-result")
	sendResult(out, c.ID, &res, err)
}

// sendResult reports one cell's outcome.
func sendResult(out *frameWriter, id int, res *tea.Result, err error) {
	f := Frame{T: frameResult, ID: id}
	if err != nil {
		f.Err = err.Error()
	} else {
		f.Res = res
	}
	out.send(f)
}

// openWorkerStore opens a worker's result store. A worker is its store's
// only writer, so one shard file is enough (and put's fault site knows
// which file to tear).
func openWorkerStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Shards: 1})
}

// put stores one completed cell, fsynced before its result is reported. It
// hosts the torn-journal fault site: the line Put just wrote is cut in half
// on disk, then the worker is SIGKILLed — a real torn tail for the store's
// corrupt-record drop path to absorb.
func put(st *store.Store, dir string, rec tea.JournalRecord, faults *faultinject.Injector) error {
	if !faults.Fire("torn-journal") {
		return st.Put(rec)
	}
	path := filepath.Join(dir, "shard-000.jsonl") // the single shard
	before, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := st.Put(rec); err != nil {
		return err
	}
	after, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, before.Size()+(after.Size()-before.Size())/2); err != nil {
		return err
	}
	faults.Die()
	return fmt.Errorf("torn-journal fired") // only reached under a test Die override
}
