package bench

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"teasim/tea"
)

// checker counts output checks; each failure counts once in fail_frac.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failures, for the log
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// cellRec is one simulated cell as seen at the RunFunc seam.
type cellRec struct {
	group    string // the pass or request the cell ran for
	workload string
	cfg      tea.Config
	dur      time.Duration
	res      tea.Result
	err      error
}

// cellLog records every cell that passes through a wrapped RunFunc.
type cellLog struct {
	mu   sync.Mutex
	recs []cellRec
}

func (l *cellLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// since returns the cells recorded after the first i.
func (l *cellLog) since(i int) []cellRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]cellRec(nil), l.recs[i:]...)
}

// spanParent names the span a cell belongs under: its group and parent index.
type spanParent func(ctx context.Context) (group string, parent int)

// wrap times every call of fn, records it, and opens a span while tracing.
func (l *cellLog) wrap(fn tea.RunFunc, rec *atomic.Pointer[Recorder], name string, parent spanParent) tea.RunFunc {
	return func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		group, p := parent(ctx)
		r := rec.Load()
		span := r.Begin(name, group, p)
		start := time.Now()
		res, err := fn(ctx, workload, cfg)
		dur := time.Since(start)
		r.End(span)
		l.mu.Lock()
		l.recs = append(l.recs, cellRec{group: group, workload: workload, cfg: cfg, dur: dur, res: res, err: err})
		l.mu.Unlock()
		return res, err
	}
}

// checkResult tests the invariants any simulated cell must satisfy.
func checkResult(r tea.Result, cfg tea.Config) error {
	machine, err := cfg.ResolvedSpec()
	if err != nil {
		return err
	}
	// The core stops at the end of the cycle that reaches the budget, so it
	// may retire up to one retire group past it.
	limit := cfg.MaxInstructions + uint64(machine.Frontend.RetireWidth) - 1
	switch {
	case r.Err != "":
		return fmt.Errorf("cell error %q", r.Err)
	case r.Instructions == 0 || r.Cycles == 0:
		return fmt.Errorf("empty run: %d instructions in %d cycles", r.Instructions, r.Cycles)
	case cfg.MaxInstructions > 0 && r.Instructions > limit:
		return fmt.Errorf("retired %d instructions, past the %d budget by more than a retire group", r.Instructions, cfg.MaxInstructions)
	case math.Abs(r.IPC-float64(r.Instructions)/float64(r.Cycles)) > 1e-9*r.IPC:
		return fmt.Errorf("IPC %v disagrees with %d/%d", r.IPC, r.Instructions, r.Cycles)
	case r.Accuracy < 0 || r.Accuracy > 1 || r.Coverage < 0 || r.Coverage > 1:
		return fmt.Errorf("accuracy %v or coverage %v outside [0,1]", r.Accuracy, r.Coverage)
	}
	return nil
}

// cellKey is the engine's memo tuple for a cell: equal keys must give equal
// results.
func cellKey(c cellRec) string {
	fp, _ := c.cfg.SpecFingerprint()
	return fmt.Sprintf("%s/%s@%016x/n%d/s%d", c.workload, c.cfg.Mode, fp, c.cfg.MaxInstructions, c.cfg.Scale)
}

// verifyCells checks each cell's invariants and that a cell simulated again
// (in another pass, another order, or another process) gives the same result.
func verifyCells(chk *checker, refs map[string]tea.Result, cells []cellRec) {
	for _, c := range cells {
		if c.err != nil {
			chk.check(false, "%s/%s: %v", c.workload, c.cfg.Mode, c.err)
			continue
		}
		err := checkResult(c.res, c.cfg)
		chk.check(err == nil, "%s/%s: %v", c.workload, c.cfg.Mode, err)
		key := cellKey(c)
		if ref, ok := refs[key]; ok {
			chk.check(reflect.DeepEqual(ref, c.res), "%s: result differs from an earlier run of the same cell", key)
		} else {
			refs[key] = c.res
		}
	}
}
