package main

import (
	"fmt"

	"teasim/internal/isa"
	"teasim/internal/workloads"
)

// disasm prints the instructions at the start of the workload's code.
func disasm(w workloads.Workload) {
	prog := w.Build(1)
	for pc := uint64(0x10000); pc <= 0x10060; pc += isa.InstBytes {
		in := prog.InstAt(pc)
		if in == nil {
			continue
		}
		fmt.Printf("%#x: %s\n", pc, in)
	}
}
