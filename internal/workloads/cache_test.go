package workloads

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"teasim/internal/emu"
	"teasim/internal/isa"
)

// counted wraps w so every Build is counted.
func counted(w Workload, builds *atomic.Int64) Workload {
	build := w.Build
	w.Build = func(scale int) *isa.Program {
		builds.Add(1)
		return build(scale)
	}
	return w
}

// TestSharedBuildsOnce: concurrent callers asking for the same (name,
// scale) share one build, and a different scale is a different entry.
func TestSharedBuildsOnce(t *testing.T) {
	c := newProgCache(sharedCap)
	var builds atomic.Int64
	w := counted(MCF(), &builds)
	progs := make([]*isa.Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i] = c.get(w, 0)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one (name, scale), want 1", n)
	}
	for _, p := range progs {
		if p != progs[0] {
			t.Fatal("callers got different programs for one (name, scale)")
		}
	}
	if !reflect.DeepEqual(progs[0], w.Build(0)) {
		t.Fatal("shared program differs from a fresh build")
	}
	if c.get(w, 1) == progs[0] {
		t.Fatal("scale 1 returned the scale-0 program")
	}
}

// TestSharedOverCapBuildsPerCall: a program that does not fit under the
// cap is built afresh on every call, its key is not retained, and it runs
// to the same results as a fresh build. Programs that fit stay shared.
func TestSharedOverCapBuildsPerCall(t *testing.T) {
	small, big := TC(), BFS()
	capBytes := dataBytes(small.Build(0))
	if dataBytes(big.Build(0)) <= capBytes {
		t.Fatal("test needs bfs's data to be larger than tc's")
	}
	c := newProgCache(capBytes)
	var builds atomic.Int64
	big = counted(big, &builds)

	a, b := c.get(big, 0), c.get(big, 0)
	if a == b {
		t.Fatal("an over-cap program was shared")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for two over-cap calls, want 2", n)
	}
	if len(c.entries) != 0 {
		t.Fatalf("cache retains %d entries for a program that did not fit", len(c.entries))
	}
	for _, p := range []*isa.Program{a, b} {
		if !reflect.DeepEqual(p, big.Build(0)) {
			t.Fatal("over-cap program differs from a fresh build")
		}
		m := emu.New(p)
		if _, err := m.Run(2_000_000_000); err != nil || !m.Halted {
			t.Fatalf("over-cap program did not run to halt: %v", err)
		}
		for i, want := range big.Expected(0) {
			if got := m.Mem.ReadU64(ResultAddr(i)); got != want {
				t.Fatalf("result[%d] = %d, want %d", i, got, want)
			}
		}
	}

	if p := c.get(small, 0); p != c.get(small, 0) {
		t.Fatal("a program that fits was not shared")
	}
	if c.bytes != capBytes {
		t.Fatalf("cache holds %d data bytes, want %d", c.bytes, capBytes)
	}
	// The cache is full: a new key is built per call and not recorded.
	if c.get(MCF(), 0) == c.get(MCF(), 0) {
		t.Fatal("a full cache shared a new program")
	}
	if len(c.entries) != 1 {
		t.Fatalf("full cache holds %d entries, want 1", len(c.entries))
	}
}

// TestAllReturnsCopy: callers cannot modify the suite table through All.
func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "clobbered"
	if All()[0].Name == "clobbered" {
		t.Fatal("All exposes the suite table")
	}
	if _, ok := ByName(suite[0].Name); !ok {
		t.Fatal("ByName lost the first workload")
	}
}
