// Package faultinject is the chaos-injection harness compiled into
// cmd/teaworker: a small registry of named fault points, armed from an
// environment variable, that lets the fabric's robustness tests drive *real*
// failures — a worker SIGKILLed mid-shard, a journal line torn in half by a
// crash, a simulation that wedges, a heartbeat that stops arriving — instead
// of mocked ones.
//
// Fault points are armed with TEASIM_FAULTS, a comma-separated list of
//
//	point[@worker][:nth]
//
// where point names a fault site (see the catalog below), @worker restricts
// the fault to the fabric worker whose TEASIM_WORKER_ID matches (omitted =
// every worker), and :nth fires the fault on the nth hit of the point
// (omitted = the first). Each armed fault fires exactly once.
//
// The catalog of points the worker consults (DESIGN.md §16):
//
//	crash-on-shard       SIGKILL self as soon as a shard arrives
//	stall                wedge forever before simulating a cell (heartbeat
//	                     frames keep flowing but beats stop advancing)
//	delay-heartbeat      stop sending heartbeat frames while a cell runs
//	torn-journal         cut the line just written to the worker's result
//	                     store in half, SIGKILL self (a real torn tail)
//	crash-before-result  SIGKILL self after simulating (and storing) a
//	                     cell but before reporting its result
//
// A nil *Injector is valid and never fires, so production binaries pay one
// nil check per fault site.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// EnvFaults is the environment variable naming the armed fault points.
const EnvFaults = "TEASIM_FAULTS"

// EnvWorkerID is the environment variable carrying the fabric worker's index
// (set by the coordinator when it spawns the process).
const EnvWorkerID = "TEASIM_WORKER_ID"

// point is one armed fault.
type point struct {
	nth  int // fire on the nth hit (1-based)
	hits int
	done bool
}

// Injector holds the armed fault points for this process. Safe for
// concurrent use; the zero value (and nil) never fires.
type Injector struct {
	mu     sync.Mutex
	points map[string]*point
	die    func()
}

// Parse arms an injector from a TEASIM_FAULTS-syntax spec, keeping only the
// faults addressed to workerID (or to every worker). An empty spec returns
// nil: nothing armed, zero overhead.
func Parse(spec string, workerID int) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{points: make(map[string]*point)}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name := part
		nth := 1
		if i := strings.IndexByte(name, ':'); i >= 0 {
			n, err := strconv.Atoi(name[i+1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: bad trigger count in %q", part)
			}
			nth = n
			name = name[:i]
		}
		if i := strings.IndexByte(name, '@'); i >= 0 {
			id, err := strconv.Atoi(name[i+1:])
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad worker selector in %q", part)
			}
			name = name[:i]
			if id != workerID {
				continue // armed for a different worker
			}
		}
		if name == "" {
			return nil, fmt.Errorf("faultinject: empty fault point in %q", part)
		}
		in.points[name] = &point{nth: nth}
	}
	if len(in.points) == 0 {
		return nil, nil
	}
	return in, nil
}

// FromEnv arms an injector from TEASIM_FAULTS / TEASIM_WORKER_ID. A bad spec
// is reported on stderr and ignored (a chaos harness must never break a
// production run that forgot to unset the variable cleanly).
func FromEnv() *Injector {
	spec := os.Getenv(EnvFaults)
	if spec == "" {
		return nil
	}
	id, _ := strconv.Atoi(os.Getenv(EnvWorkerID))
	in, err := Parse(spec, id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultinject: ignoring %s: %v\n", EnvFaults, err)
		return nil
	}
	return in
}

// Fire reports whether the named point triggers on this hit, consuming the
// trigger: each armed point fires exactly once, on its nth hit.
func (in *Injector) Fire(name string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[name]
	if p == nil || p.done {
		return false
	}
	p.hits++
	if p.hits < p.nth {
		return false
	}
	p.done = true
	return true
}

// Armed reports whether the named point is armed and not yet fired, without
// consuming a hit.
func (in *Injector) Armed(name string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[name]
	return p != nil && !p.done
}

// Crash fires the named point and, when triggered, kills the process (see
// Die) — the same uncatchable death as `kill -9`, so nothing downstream
// (defers, journal syncs, result frames) runs.
func (in *Injector) Crash(name string) {
	if in.Fire(name) {
		in.Die()
	}
}

// SetDie overrides how this injector's crash points die. A test seam:
// in-process chaos tests (tea/fabric) run simulated workers as goroutines of
// the test binary, and a real SIGKILL would take the whole test down — the
// override severs the fake worker's pipes and exits its goroutine instead.
// Production workers never call this.
func (in *Injector) SetDie(fn func()) {
	in.mu.Lock()
	in.die = fn
	in.mu.Unlock()
}

// Die kills the current worker: the SetDie override if installed, else a
// process SIGKILL. Exposed for fault sites that do their damage before dying
// (torn-journal tears a line first).
func (in *Injector) Die() {
	var fn func()
	if in != nil {
		in.mu.Lock()
		fn = in.die
		in.mu.Unlock()
	}
	if fn != nil {
		fn()
		return
	}
	Die()
}

// Stall fires the named point and, when triggered, wedges the calling
// goroutine forever — the canonical hung-simulation fault.
func (in *Injector) Stall(name string) {
	if in.Fire(name) {
		select {}
	}
}

// Die SIGKILLs the current process. Exposed for fault sites that need to do
// their damage first (torn-journal tears a line, then dies).
func Die() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL delivery can race the return; make death certain.
	time.Sleep(10 * time.Second)
	os.Exit(137)
}
