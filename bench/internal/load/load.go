// Package load drives a request stream from one process over a bounded
// number of connections, as an open loop (requests due on a schedule) or a
// closed loop (each client sends its next request when the last returns).
package load

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Timing is one request's timeline.
type Timing struct {
	Due     time.Time // when the schedule wanted it sent
	Woke    time.Time // when the generator reached it
	Sent    time.Time // when a connection started sending it
	Done    time.Time // when its response was complete
	Skipped bool      // never sent: the context ended first
}

// Latency is the time from due to response, which counts the wait a stall
// imposes on every request behind it.
func (t Timing) Latency() time.Duration { return t.Done.Sub(t.Due) }

// GenLag is how late the generator ran for this request.
func (t Timing) GenLag() time.Duration { return t.Woke.Sub(t.Due) }

// ConnWait is the time from due until a connection started sending.
func (t Timing) ConnWait() time.Duration { return t.Sent.Sub(t.Due) }

// OpenLoop sends request i at start+due[i] (due ascending) over at most conns
// connections and returns each request's timing. While every connection is
// busy the generator waits for one, so it runs late and the lateness shows
// in GenLag and in the latency of every later request.
func OpenLoop(ctx context.Context, due []time.Duration, conns int, do func(i int)) []Timing {
	ts := make([]Timing, len(due))
	slots := make(chan struct{}, conns) // counting semaphore: one token per connection
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		ts[i].Due = start.Add(d)
		if !sleepUntil(ctx, ts[i].Due) {
			markSkipped(ts[i:])
			break
		}
		ts[i].Woke = time.Now()
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			markSkipped(ts[i:])
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i].Sent = time.Now()
			do(i)
			ts[i].Done = time.Now()
			<-slots
		}(i)
	}
	wg.Wait()
	return ts
}

// ClosedLoop runs requests 0..n-1 in order from `clients` clients that each
// send their next request as soon as the previous one completes.
func ClosedLoop(ctx context.Context, n, clients int, do func(i int)) []Timing {
	ts := make([]Timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				now := time.Now()
				ts[i].Due, ts[i].Woke, ts[i].Sent = now, now, now
				do(i)
				ts[i].Done = time.Now()
			}
		}()
	}
	wg.Wait()
	for i := int(next.Load()); i < n; i++ {
		ts[i].Skipped = true
	}
	return ts
}

func markSkipped(ts []Timing) {
	for i := range ts {
		ts[i].Skipped = true
	}
}

// sleepUntil waits until t or the context's end; false means cancelled.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
