// Command mpki is the developer probe for simulator internals that no other
// tool prints: TEA-thread structure counters, baseline pipeline and cache
// counters, and the disassembly of a workload's hot region. It is a
// diagnostics tool, not part of the public surface.
//
//	go run ./internal/tools/mpki tea bfs      # TEA internals on bfs
//	go run ./internal/tools/mpki base mcf     # baseline pipeline stats
//	go run ./internal/tools/mpki dis nab      # disassemble a hot region
//
// Everything else lives in the public tools: IPC and MPKI per workload are
// `teaexp -exp fig6`, structure-size sweeps `teaexp -exp sens-*`, ablations
// and engine variants `teasim -mode M -set companion.tea.F=V`, and CPU
// profiles `teaexp -exp fig6 -w W -cpuprofile F`.
package main

import (
	"fmt"
	"os"
	"strings"

	"teasim/internal/workloads"
)

func main() {
	var probe func(workloads.Workload)
	if len(os.Args) == 3 {
		switch os.Args[1] {
		case "dis":
			probe = disasm
		case "tea":
			probe = teaDebug
		case "base":
			probe = baseDebug
		}
	}
	if probe == nil {
		fmt.Fprintln(os.Stderr, "usage: mpki dis|tea|base WORKLOAD")
		os.Exit(2)
	}
	w, ok := workloads.ByName(os.Args[2])
	if !ok {
		var names []string
		for _, w := range workloads.All() {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "mpki: unknown workload %q (have %s)\n", os.Args[2], strings.Join(names, " "))
		os.Exit(2)
	}
	probe(w)
}
