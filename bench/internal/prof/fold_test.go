package prof

import (
	"math"
	"strings"
	"testing"
	"time"
)

// canned is `go tool pprof -traces -lines` output, trimmed to a few stacks
// that exercise every charging rule.
const canned = `File: teabench
Build ID: 808ff71d4958bc412f258d730c46440b6acc69f3
Type: cpu
Time: 2026-10-16 00:40:49 UTC
Duration: 503.71ms, Total samples = 350ms (69.48%)
-----------+-------------------------------------------------------
      40ms   teasim/internal/bpred.(*folded).update /src/internal/bpred/history.go:88
             teasim/internal/bpred.(*History).Push /src/internal/bpred/history.go:120 (inline)
             teasim/internal/pipeline.(*Core).fetch /src/internal/pipeline/frontend.go:204
             teasim/tea.RunContext /src/tea/tea.go:336
-----------+-------------------------------------------------------
      30ms   teasim/internal/pipeline.(*Core).fetch /src/internal/pipeline/frontend.go:210
             teasim/internal/pipeline.(*Core).Tick /src/internal/pipeline/core.go:422
-----------+-------------------------------------------------------
      20ms   teasim/internal/pipeline.(*Core).selectReady /src/internal/pipeline/sched_bitset.go:101
-----------+-------------------------------------------------------
      10ms   teasim/internal/pipeline.(*Core).Tick /src/internal/pipeline/core.go:400
-----------+-------------------------------------------------------
      50ms   runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1000
             sort.Slice /usr/local/go/src/sort/slice.go:20
             teasim/internal/workloads.genGraph /src/internal/workloads/graphs.go:40
-----------+-------------------------------------------------------
      1.20s   runtime.gcBgMarkWorker /usr/local/go/src/runtime/mgc.go:1300
-----------+-------------------------------------------------------
      10ms   syscall.Syscall /usr/local/go/src/syscall/syscall_linux.go:70
             net/http.(*conn).serve /usr/local/go/src/net/http/server.go:2000
-----------+-------------------------------------------------------
      10ms   net.(*conn).Read /usr/local/go/src/net/net.go:190
             net/http.(*persistConn).readLoop /usr/local/go/src/net/http/transport.go:2000
-----------+-------------------------------------------------------
      10ms   slices.pdqsortCmpFunc[go.shape.struct { a int }] /usr/local/go/src/slices/zsortanyfunc.go:60
             main.main /src/bench/cmd/teabench/main.go:30
-----------+-------------------------------------------------------
`

func TestFoldCannedTraces(t *testing.T) {
	samples, err := ParseTraces(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	if f := samples[0].Frames[1]; f.Func != "teasim/internal/bpred.(*History).Push" || f.File != "/src/internal/bpred/history.go" {
		t.Errorf("inline frame parsed as %+v", f)
	}
	if f := samples[8].Frames[0]; f.Func != "slices.pdqsortCmpFunc[go.shape.struct { a int }]" {
		t.Errorf("generic frame parsed as %+v", f)
	}
	got := Fold(samples)
	want := map[string]time.Duration{
		"bpred":             40 * time.Millisecond,
		"pipeline.frontend": 30 * time.Millisecond,
		"pipeline.sched":    20 * time.Millisecond,
		"pipeline.other":    10 * time.Millisecond,
		"workloads":         50 * time.Millisecond,
		"runtime":           1200 * time.Millisecond,
		"serve":             10 * time.Millisecond,
		"bench":             20 * time.Millisecond,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s = %v, want %v", l, got[l], d)
		}
	}
	for l, d := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %s = %v", l, d)
		}
	}

	// Scaling by process CPU preserves shares and covers every layer.
	secs := Scale(got, 2*1380*time.Millisecond) // twice the 1380ms sampled
	if len(secs) != len(Layers) {
		t.Errorf("scaled %d layers, want %d", len(secs), len(Layers))
	}
	if math.Abs(secs["bpred"]-0.08) > 1e-12 || math.Abs(secs["runtime"]-2.4) > 1e-12 {
		t.Errorf("scaled bpred %v runtime %v, want 0.08 and 2.4", secs["bpred"], secs["runtime"])
	}
}

func TestLayersCoverEveryMapping(t *testing.T) {
	known := map[string]bool{}
	for _, l := range Layers {
		known[l] = true
	}
	for pkg, l := range pkgLayer {
		if !known[l] {
			t.Errorf("package %s maps to unlisted layer %s", pkg, l)
		}
	}
}
