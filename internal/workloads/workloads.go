// Package workloads provides the 17 benchmark kernels used to reproduce the
// paper's evaluation: the six GAP graph kernels implemented for real (bfs,
// bc, cc, pr, sssp, tc on synthetic graphs) and eleven SPEC-CPU2017-like
// kernels reproducing each benchmark's H2P-branch-relevant inner loops.
//
// Every kernel is written in the µISA through the assembler DSL, driven by
// deterministic pseudo-random inputs, and functionally validated against a
// native Go implementation of the same algorithm (workloads_test.go).
//
// The paper's control-flow classification (§V-C) is preserved: the GAP
// kernels plus xz are "simple control flow" (independent branches in plain
// loops); the remaining SPEC-like kernels are "complex".
package workloads

import (
	"fmt"
	"slices"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

// Flow classifies a workload's control-flow complexity (paper §V-C).
type Flow int

// Control-flow classes.
const (
	Simple Flow = iota
	Complex
)

// resultBase is where kernels store their final result words, so tests and
// examples can validate functional correctness via the emulator or the
// pipeline's committed memory.
const resultBase = 0xF00000

// ResultAddr returns the address of result word i.
func ResultAddr(i int) uint64 { return resultBase + uint64(i)*8 }

// Workload is one benchmark: a program builder plus the expected result
// words computed by a native Go model of the same algorithm.
type Workload struct {
	Name string
	Flow Flow
	// Build assembles the program at the given scale (1 = benchmark size;
	// tests use smaller scales). Expected returns the native-model result
	// words for the same scale.
	Build    func(scale int) *isa.Program
	Expected func(scale int) []uint64
}

// suite is the benchmark table, built once. Constructing a Workload only
// captures its closures; no program is assembled until Build runs.
var suite = []Workload{
	Perlbench(), GCC(), MCF(), Omnetpp(), Xalancbmk(), X264(),
	Deepsjeng(), Leela(), Exchange2(), XZ(), NAB(),
	BFS(), BC(), CC(), PR(), SSSP(), TC(),
}

// All returns the full benchmark suite in the paper's presentation order
// (SPEC first, then GAP). The slice is a fresh copy the caller may modify.
func All() []Workload {
	return append([]Workload(nil), suite...)
}

// ByName returns the workload with the given name, or false.
func ByName(name string) (Workload, bool) {
	for _, w := range suite {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// CheckUnique returns an error naming the first of names that repeats an
// earlier one. An experiment lists each workload once: a repeat would print
// its row twice and count it twice in every geomean.
func CheckUnique(names []string) error {
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			return fmt.Errorf("repeated workload %q", name)
		}
	}
	return nil
}

// rng is the deterministic xorshift generator used for all synthetic inputs.
type rng uint64

func newRng(seed uint64) *rng {
	r := rng(seed*2862933555777941757 + 3037000493)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// layout is a bump allocator for kernel data regions.
type layout struct{ next uint64 }

func newLayout() *layout { return &layout{next: 0x1000000} }

func (l *layout) alloc(bytes int) uint64 {
	a := l.next
	l.next = (l.next + uint64(bytes) + 63) &^ 63
	return a
}

func (l *layout) words(n int) uint64 { return l.alloc(8 * n) }

// storeResult emits code writing reg to result word i (clobbers r29).
func storeResult(b *asm.Builder, i int, reg isa.Reg) {
	b.LiU(isa.R29, ResultAddr(i))
	b.St(isa.R29, 0, reg)
}
