package tea_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"teasim/tea"
)

// goldenExperiments are the experiments whose machine points are spec
// edits of a preset: the Fig 10 ablations, the §V-B prefetch-only variant
// and every sensitivity sweep. Their CSVs pin the simulated numbers, so a
// dropped, misplaced or mistyped patch changes a golden byte.
var goldenExperiments = []string{
	"fig10", "prefetchonly",
	"sens-blockcache", "sens-fillbuffer", "sens-h2pdecay", "sens-lead", "sens-fetchqueue",
}

// TestExperimentGoldens re-runs each golden experiment on two kernels at a
// small budget and compares its CSV with testdata/experiments. On omnetpp
// and leela every Fig 10 ablation moves at least one column and
// prefetch-only differs from Fig 5. Regenerate with
// `go test ./tea -run TestExperimentGoldens -update`.
func TestExperimentGoldens(t *testing.T) {
	opts := tea.ExpOptions{
		MaxInstructions: 20_000,
		Workloads:       []string{"omnetpp", "leela"},
		Engine:          tea.NewEngine(2), // shared: each baseline simulates once
	}
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			rep, err := tea.RunExperiment(context.Background(), name, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.Write(&buf, tea.FormatCSV); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "experiments", name+".csv")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./tea -run TestExperimentGoldens -update` to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s changed; got:\n%s\nwant:\n%s", name, buf.Bytes(), want)
			}
		})
	}
}
