package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one cell or request share Group.
type Span struct {
	Group  string `json:"id"`
	Index  int    `json:"span"`
	Parent int    `json:"parent"` // -1 at a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder records
// nothing, which is how untraced runs skip the cost.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its index (-1 on a nil recorder).
func (r *Recorder) Begin(name, group string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Group: group, Index: len(r.spans), Parent: parent, Name: name, Start: now})
	return len(r.spans) - 1
}

// End closes span i.
func (r *Recorder) End(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// WriteJSONL writes every span, one per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
