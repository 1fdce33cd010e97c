// Package prof folds a CPU profile into the repository's layers. It reads
// the text `go tool pprof -traces -lines` prints, charges each sample to the
// innermost frame that belongs to this repository (the simulator module or
// the benchmark itself), and maps that frame's package — and, inside the
// pipeline, its source file — to a layer.
package prof

import (
	"bufio"
	"fmt"
	"io"
	"path"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Layers lists every layer a sample can be charged to, in report order.
var Layers = []string{
	"workloads", "spec",
	"pipeline.frontend", "pipeline.sched", "pipeline.backend", "pipeline.other",
	"bpred", "mem", "emu",
	"core", "runahead", "bullseye", "ldbp", "twowin", "companion",
	"telemetry", "tea", "store", "serve", "fabric", "bench", "runtime", "other",
}

// pkgLayer maps the simulator's packages to layers; the pipeline package is
// split by source file in layerOf.
var pkgLayer = map[string]string{
	"teasim/internal/workloads":   "workloads",
	"teasim/internal/asm":         "workloads",
	"teasim/tea/spec":             "spec",
	"teasim/internal/bpred":       "bpred",
	"teasim/internal/mem":         "mem",
	"teasim/internal/emu":         "emu",
	"teasim/internal/isa":         "emu",
	"teasim/internal/core":        "core",
	"teasim/internal/runahead":    "runahead",
	"teasim/internal/bullseye":    "bullseye",
	"teasim/internal/ldbp":        "ldbp",
	"teasim/internal/twowin":      "twowin",
	"teasim/internal/companion":   "companion",
	"teasim/internal/telemetry":   "telemetry",
	"teasim/tea":                  "tea",
	"teasim/tea/store":            "store",
	"teasim/tea/serve":            "serve",
	"teasim/tea/fabric":           "fabric",
	"teasim/internal/faultinject": "fabric",
}

// Frame is one stack frame of a sample.
type Frame struct {
	Func string
	File string // empty when the profile carries no line information
}

// Sample is one distinct stack with the CPU time charged to it.
type Sample struct {
	Value  time.Duration
	Frames []Frame // innermost first
}

var fileLine = regexp.MustCompile(`^(.*\S)\s+(\S+):\d+(?:\s+\(inline\))?$`)

// ParseTraces reads `go tool pprof -traces -lines` output.
func ParseTraces(r io.Reader) ([]Sample, error) {
	var out []Sample
	var cur *Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		trimmed := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			cur = nil
			continue
		case trimmed == "":
			continue
		}
		if cur == nil {
			// A block opens with "<value>   <frame>". Header lines
			// ("File: ...", "Type: cpu") and sample labels, which pprof
			// prints before the value, do not parse as a value.
			val, rest, ok := strings.Cut(trimmed, " ")
			d, err := parseValue(val)
			if !ok || err != nil {
				continue
			}
			out = append(out, Sample{Value: d})
			cur = &out[len(out)-1]
			trimmed = strings.TrimSpace(rest)
		}
		cur.Frames = append(cur.Frames, parseFrame(trimmed))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prof: read traces: %w", err)
	}
	return out, nil
}

func parseFrame(s string) Frame {
	if m := fileLine.FindStringSubmatch(s); m != nil {
		return Frame{Func: m[1], File: m[2]}
	}
	return Frame{Func: s}
}

// parseValue reads a pprof duration such as "10ms", "1.20s" or "2.50mins".
func parseValue(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"min", time.Minute}, {"hrs", time.Hour}, {"hr", time.Hour}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	return time.ParseDuration(s)
}

// pkgOf extracts the package path from a fully qualified function name.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf returns the layer of a frame and whether it belongs to this
// repository at all.
func layerOf(f Frame) (string, bool) {
	pkg := pkgOf(f.Func)
	switch {
	case pkg == "teasim/internal/pipeline":
		base := path.Base(f.File)
		switch {
		case base == "frontend.go":
			return "pipeline.frontend", true
		case strings.HasPrefix(base, "sched"):
			return "pipeline.sched", true
		case base == "backend.go":
			return "pipeline.backend", true
		}
		return "pipeline.other", true
	case pkg == "main" || strings.HasPrefix(pkg, "teabench/"):
		return "bench", true
	}
	if l, ok := pkgLayer[pkg]; ok {
		return l, true
	}
	if strings.HasPrefix(pkg, "teasim/") {
		return "other", true
	}
	return "", false
}

// Charge returns the layer one sample is charged to: its innermost
// repository frame, else the HTTP side its stack serves, else the runtime.
func Charge(s Sample) string {
	for _, f := range s.Frames {
		if l, ok := layerOf(f); ok {
			return l
		}
	}
	for _, f := range s.Frames {
		switch {
		case strings.HasPrefix(f.Func, "net/http.(*conn)."):
			return "serve"
		case strings.HasPrefix(f.Func, "net/http.(*persistConn)."):
			return "bench"
		}
	}
	return "runtime"
}

// Fold sums sample time per layer.
func Fold(samples []Sample) map[string]time.Duration {
	out := make(map[string]time.Duration, len(Layers))
	for _, s := range samples {
		out[Charge(s)] += s.Value
	}
	return out
}

// Scale converts folded sample time into seconds of process CPU: each
// layer's share of all samples times the CPU time the process used while
// the profile ran, which corrects for samples the profiler dropped.
func Scale(fold map[string]time.Duration, cpu time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range fold {
		total += d
	}
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		if total > 0 {
			out[l] = cpu.Seconds() * float64(fold[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
