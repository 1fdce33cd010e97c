package tea

// Paranoia suite: run real simulations with the per-cycle invariant checker
// armed and confirm (a) no invariant fires and (b) results are bit-identical
// to the unchecked run — the checker only reads.
//
// The default run covers a trimmed workload subset on every registered
// preset at a small budget (CI-friendly); `go test ./tea/ -run
// TestParanoiaSuite -paranoia-full` (the `make paranoia` target) runs the
// full workload suite at a larger budget on every preset.

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"teasim/tea/spec"
)

var paranoiaFull = flag.Bool("paranoia-full", false,
	"run the paranoia suite over every workload at full budget")

func TestParanoiaSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("paranoia suite is slow; skipped with -short")
	}
	workloads := []string{"bfs", "mcf"}
	budget := uint64(20_000)
	if *paranoiaFull {
		workloads = Workloads()
		budget = 200_000
	}
	for _, w := range workloads {
		for _, p := range spec.Presets() {
			t.Run(fmt.Sprintf("%s/%s", w, p), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Mode: Mode(p), MaxInstructions: budget, Scale: 1}
				plain, err := Run(w, cfg)
				if err != nil {
					t.Fatalf("unchecked run failed: %v", err)
				}
				cfg.Paranoia = true
				checked, err := Run(w, cfg) // an invariant violation panics
				if err != nil {
					t.Fatalf("paranoid run failed: %v", err)
				}
				if !reflect.DeepEqual(checked, plain) {
					t.Errorf("paranoia changed the result:\nchecked: %+v\nplain:   %+v", checked, plain)
				}
			})
		}
	}
}
