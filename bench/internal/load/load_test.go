package load

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func schedule(n int, every time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * every
	}
	return due
}

func maxOf(ts []Timing, f func(Timing) time.Duration) time.Duration {
	var m time.Duration
	for _, t := range ts {
		m = max(m, f(t))
	}
	return m
}

// A handler that stalls once must inflate the latency of the requests queued
// behind it, measured from their due times, and show the generator running
// late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := schedule(30, 10*time.Millisecond)
	ts := OpenLoop(context.Background(), due, 1, func(i int) {
		if i == 2 {
			time.Sleep(stall)
			return
		}
		time.Sleep(time.Millisecond)
	})
	// Request 5 was due 30ms after the stalled one started, so it waited
	// out most of the stall even though it took 1ms itself.
	if l := ts[5].Latency(); l < stall-50*time.Millisecond {
		t.Errorf("request behind the stall has latency %v, want ≥ %v", l, stall-50*time.Millisecond)
	}
	if l := ts[5].Done.Sub(ts[5].Sent); l > 50*time.Millisecond {
		t.Errorf("request behind the stall took %v on the wire; the stub takes 1ms", l)
	}
	if lag := maxOf(ts, Timing.GenLag); lag < stall/2 {
		t.Errorf("generator lag peaked at %v, want ≥ %v", lag, stall/2)
	}
	if w := maxOf(ts, Timing.ConnWait); w < stall/2 {
		t.Errorf("connection wait peaked at %v, want ≥ %v", w, stall/2)
	}

	// Without the stall nothing queues.
	calm := OpenLoop(context.Background(), due, 1, func(int) { time.Sleep(time.Millisecond) })
	if lag := maxOf(calm, Timing.GenLag); lag > 50*time.Millisecond {
		t.Errorf("unloaded generator ran %v late", lag)
	}
}

func TestOpenLoopBoundsConnections(t *testing.T) {
	var inFlight, peak atomic.Int64
	OpenLoop(context.Background(), make([]time.Duration, 20), 2, func(int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	})
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrency %d, want 2", p)
	}
}

func TestClosedLoopRunsEveryRequestOnce(t *testing.T) {
	var seen [50]atomic.Int32
	ts := ClosedLoop(context.Background(), len(seen), 2, func(i int) { seen[i].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 || ts[i].Skipped {
			t.Fatalf("request %d ran %d times (skipped %v)", i, seen[i].Load(), ts[i].Skipped)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ts := OpenLoop(ctx, schedule(100, 10*time.Millisecond), 2, func(int) {})
	if !ts[len(ts)-1].Skipped {
		t.Error("requests due after cancellation were not skipped")
	}
}
