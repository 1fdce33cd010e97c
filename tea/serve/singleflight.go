package serve

import (
	"context"
	"sync"

	"teasim/tea"
)

// flightGroup coalesces concurrent simulations of the same memo key onto one
// execution: N identical in-flight cells — across requests, not just within
// one engine's memo — cost one simulation. The stdlib has no singleflight;
// this is the minimal typed form over tea.MemoKey.
type flightGroup struct {
	mu    sync.Mutex
	calls map[tea.MemoKey]*flightCall
}

// flightCall is one in-flight simulation and its latched outcome.
type flightCall struct {
	done chan struct{}
	res  tea.Result
	err  error
}

// do returns the result of fn for key, executing it at most once among
// concurrent callers. coalesced reports that this caller rode on another
// caller's execution. The executing caller runs under its own ctx; a waiter
// whose ctx dies first returns its ctx error without disturbing the
// execution (the leader — and the store — still finish and keep the result).
func (g *flightGroup) do(ctx context.Context, key tea.MemoKey, fn func() (tea.Result, error)) (res tea.Result, err error, coalesced bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[tea.MemoKey]*flightCall)
	}
	if c, inFlight := g.calls[key]; inFlight {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err, true
		case <-ctx.Done():
			return tea.Result{}, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, c.err, false
}
