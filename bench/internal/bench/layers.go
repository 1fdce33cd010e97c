package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"teabench/internal/prof"
)

// FoldProfile runs `go tool pprof -traces -lines` on a CPU profile and
// returns each layer's share of the process CPU time cpu, in seconds.
func FoldProfile(path string, cpu time.Duration) (map[string]float64, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	samples, err := prof.ParseTraces(&out)
	if err != nil {
		return nil, err
	}
	return prof.Scale(prof.Fold(samples), cpu), nil
}

// cpuFile records, beside a traced run's profile, the process CPU time the
// profile covered, so `teabench layers` can scale sample shares later.
const cpuFile = "cpu.json"

func writeCPUSeconds(dir string, cpu time.Duration) error {
	data, err := json.Marshal(map[string]float64{"cpu_s": cpu.Seconds()})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, cpuFile), data, 0o644)
}

// Layers prints the layer table of a traced run's directory: each layer's
// self CPU time and its share.
func Layers(dir string, w io.Writer) error {
	data, err := os.ReadFile(filepath.Join(dir, cpuFile))
	if err != nil {
		return err
	}
	var meta struct {
		CPU float64 `json:"cpu_s"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("%s: %w", cpuFile, err)
	}
	cpu := time.Duration(meta.CPU * float64(time.Second))
	secs, err := FoldProfile(filepath.Join(dir, "cpu.pprof"), cpu)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %10s %7s\n", "layer", "self cpu_s", "share")
	for _, l := range prof.Layers {
		share := 0.0
		if meta.CPU > 0 {
			share = 100 * secs[l] / meta.CPU
		}
		fmt.Fprintf(w, "%-20s %10.3f %6.1f%%\n", l, secs[l], share)
	}
	fmt.Fprintf(w, "%-20s %10.3f\n", "total", meta.CPU)
	return nil
}
