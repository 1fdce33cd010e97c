package tea

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"teasim/internal/isa"
	"teasim/internal/workloads"
	"teasim/tea/spec"
)

// freshBuild is the program source of a cell that owns its program.
func freshBuild(w workloads.Workload, scale int) *isa.Program { return w.Build(scale) }

// TestSharedProgramIsolation runs one GAP and one SPEC kernel under every
// shootout kind from eight goroutines at once, all on the process-wide
// shared programs. Every Result must equal a run on a freshly built
// program, and afterwards the shared programs must still equal a fresh
// build: no cell may write to a program it shares. `make tier2` runs this
// under the race detector.
func TestSharedProgramIsolation(t *testing.T) {
	const scale = 1
	o := ExpOptions{MaxInstructions: 10_000, Scale: scale}.fill()
	type cell struct {
		workload string
		kind     spec.CompanionKind
		cfg      Config
	}
	var cells []cell
	for _, wl := range []string{"bfs", "mcf"} {
		for _, kind := range ShootoutKinds() {
			cells = append(cells, cell{wl, kind, kindConfig(o, kind)})
		}
	}
	want := make([]Result, len(cells))
	for i, c := range cells {
		r, err := runContext(context.Background(), c.workload, c.cfg, freshBuild)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(cells))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Rotate the order so different kinds share a program at once.
			for k := range cells {
				i := (g + k) % len(cells)
				got, err := Run(cells[i].workload, cells[i].cfg)
				if err != nil {
					errs <- err.Error()
				} else if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("%s/%s: result differs from a fresh-build run",
						cells[i].workload, cells[i].kind)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for _, name := range []string{"bfs", "mcf"} {
		w, _ := workloads.ByName(name)
		if !reflect.DeepEqual(w.Shared(scale), w.Build(scale)) {
			t.Errorf("%s: shared program no longer equals a fresh build", name)
		}
	}
}
