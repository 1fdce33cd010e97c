package core

import (
	"testing"

	"teasim/internal/isa"
)

// mkInst builds instruction helpers for walk tests.
func ldInst(rd, rs1 isa.Reg) *isa.Inst   { return &isa.Inst{Op: isa.OpLd, Rd: rd, Rs1: rs1} }
func addInst(rd, a, b isa.Reg) *isa.Inst { return &isa.Inst{Op: isa.OpAdd, Rd: rd, Rs1: a, Rs2: b} }
func stInst(rs1, rs2 isa.Reg) *isa.Inst  { return &isa.Inst{Op: isa.OpSt, Rs1: rs1, Rs2: rs2} }
func brInst(a, b isa.Reg) *isa.Inst      { return &isa.Inst{Op: isa.OpBlt, Rs1: a, Rs2: b} }

func entry(pc uint64, in *isa.Inst) FillEntry {
	return FillEntry{PC: pc, In: in, IsBranch: in.IsBranch()}
}

// TestWalkMarksChain reproduces the paper's Fig. 1 shape: a load feeding a
// compare-and-branch, with an unrelated instruction in between that must NOT
// be marked.
func TestWalkMarksChain(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFillBuffer(16)
	// Program order (oldest first):
	//   0x100: ld   r1, [r4]      (chain: produces r1)
	//   0x104: add  r9, r8, r8    (NOT in chain)
	//   0x108: blt  r1, r2 -> H2P (root)
	f.Add(entry(0x100, ldInst(isa.R1, isa.R4)))
	f.Add(entry(0x104, addInst(isa.R9, isa.R8, isa.R8)))
	e := entry(0x108, brInst(isa.R1, isa.R2))
	e.IsH2P, e.ChainBit = true, true
	f.Add(e)

	marked := f.Walk(&cfg)
	if marked != 2 {
		t.Fatalf("marked = %d, want 2 (load + branch)", marked)
	}
	if !f.entries[0].marked || f.entries[1].marked || !f.entries[2].marked {
		t.Fatalf("mark pattern wrong: %v %v %v",
			f.entries[0].marked, f.entries[1].marked, f.entries[2].marked)
	}
}

// TestWalkMemoryDependence checks store→load chains across a "call": the
// store that produces a loaded value joins the chain, and disabling NoMem
// removes it (the Fig. 10 "no mem" ablation).
func TestWalkMemoryDependence(t *testing.T) {
	build := func() *FillBuffer {
		f := NewFillBuffer(16)
		// 0x100: add r3, r5, r6     (chain via store data)
		// 0x104: st  [r30], r3      (memory dep)
		// 0x108: ld  r1, [r30]      (chain)
		// 0x10c: blt r1, r2         (H2P root)
		f.Add(entry(0x100, addInst(isa.R3, isa.R5, isa.R6)))
		st := entry(0x104, stInst(isa.SP, isa.R3))
		st.Addr = 0x8000
		f.Add(st)
		ld := entry(0x108, ldInst(isa.R1, isa.SP))
		ld.Addr = 0x8000
		f.Add(ld)
		br := entry(0x10c, brInst(isa.R1, isa.R2))
		br.IsH2P, br.ChainBit = true, true
		f.Add(br)
		return &f
	}

	cfg := DefaultConfig()
	f := build()
	if got := f.Walk(&cfg); got != 4 {
		t.Fatalf("with mem deps marked = %d, want 4", got)
	}

	cfg.NoMem = true
	f2 := build()
	got := f2.Walk(&cfg)
	if got != 2 {
		t.Fatalf("NoMem marked = %d, want 2 (load + branch only)", got)
	}
	if f2.entries[0].marked || f2.entries[1].marked {
		t.Fatal("NoMem must not mark the store-side chain")
	}
}

// TestWalkChainBitSeeding checks §III-C: TEA-marked instructions seed walks,
// extending chains beyond what a single H2P branch reaches; the NoMasks
// ablation disables it.
func TestWalkChainBitSeeding(t *testing.T) {
	cfg := DefaultConfig()
	f := NewFillBuffer(16)
	// 0x100: add r7, r6, r6   (chain only via seeding: produces r6's source)
	// 0x104: add r1, r7, r7   (TEA-marked seed)
	f.Add(entry(0x100, addInst(isa.R7, isa.R6, isa.R6)))
	seed := entry(0x104, addInst(isa.R1, isa.R7, isa.R7))
	seed.ChainBit = true
	f.Add(seed)

	if got := f.Walk(&cfg); got != 2 {
		t.Fatalf("seeded walk marked = %d, want 2", got)
	}

	cfg.NoMasks = true
	f2 := NewFillBuffer(16)
	f2.Add(entry(0x100, addInst(isa.R7, isa.R6, isa.R6)))
	f2.Add(seed)
	if got := f2.Walk(&cfg); got != 0 {
		t.Fatalf("NoMasks walk marked = %d, want 0", got)
	}
}

// TestWalkOnlyLoops: the loop-confined walk stops at the previous dynamic
// instance of the H2P branch.
func TestWalkOnlyLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnlyLoops = true
	f := NewFillBuffer(16)
	// Two iterations of: add r1,r4,r4 ; blt r1,r2 (H2P @0x104)
	// plus an older producer of r4 BEFORE the previous instance, which a
	// full walk would mark but the loop-confined walk must not.
	f.Add(entry(0x0f0, addInst(isa.R4, isa.R5, isa.R5))) // outside loop body
	it1 := entry(0x104, brInst(isa.R1, isa.R2))
	it1.IsH2P = true
	f.Add(entry(0x100, addInst(isa.R1, isa.R4, isa.R4)))
	f.Add(it1)
	it2 := entry(0x104, brInst(isa.R1, isa.R2))
	it2.IsH2P = true
	f.Add(entry(0x100, addInst(isa.R1, isa.R4, isa.R4)))
	f.Add(it2)

	f.Walk(&cfg)
	if f.entries[0].marked {
		t.Fatal("only-loops walk escaped the loop boundary")
	}
	if !f.entries[3].marked || !f.entries[4].marked {
		t.Fatal("in-loop chain not marked")
	}
}

// TestSegments checks basic-block segmentation and mask generation.
func TestSegments(t *testing.T) {
	f := NewFillBuffer(16)
	// Block A: 0x100, 0x104, branch 0x108 (marked: 0x100, 0x108)
	// Block B (taken target): 0x200 (marked)
	a0 := entry(0x100, addInst(isa.R1, isa.R2, isa.R3))
	a0.marked = true
	a1 := entry(0x104, addInst(isa.R9, isa.R8, isa.R8))
	a2 := entry(0x108, brInst(isa.R1, isa.R2))
	a2.marked = true
	b0 := entry(0x200, addInst(isa.R4, isa.R1, isa.R1))
	b0.marked = true
	f.Add(a0)
	f.Add(a1)
	f.Add(a2)
	f.Add(b0)

	type seg struct {
		pc    uint64
		count int
		mask  uint32
	}
	var segs []seg
	f.Segments(func(pc uint64, count int, mask uint32) {
		segs = append(segs, seg{pc, count, mask})
	})
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0] != (seg{0x100, 3, 0b101}) {
		t.Fatalf("segment A = %+v", segs[0])
	}
	if segs[1] != (seg{0x200, 1, 0b1}) {
		t.Fatalf("segment B = %+v", segs[1])
	}
}

func TestSourceListMemEviction(t *testing.T) {
	s := sourceList{memCap: 2, useMem: true}
	s.addMem(0x10)
	s.addMem(0x20)
	s.addMem(0x30) // evicts 0x10
	if s.hasMem(0x10) {
		t.Fatal("oldest address not evicted")
	}
	if !s.hasMem(0x20) || !s.hasMem(0x30) {
		t.Fatal("young addresses lost")
	}
	s.delMem(0x20)
	if s.hasMem(0x20) {
		t.Fatal("delMem failed")
	}
}

// TestWalkReusesScratch pins the walk's scratch to the buffer: once the
// first walk has sized the Source List's address buffer (and the loop
// walk's marks), walking again allocates nothing, in every walk mode.
func TestWalkReusesScratch(t *testing.T) {
	f := NewFillBuffer(64)
	// A chain of dependent loads from distinct addresses fills the Source
	// List's address buffer past its capacity.
	for i := 0; i < 63; i++ {
		e := entry(0x100+uint64(4*i), ldInst(isa.R1, isa.R1))
		e.Addr = 0x8000 + uint64(8*i)
		f.Add(e)
	}
	root := entry(0x100+4*63, brInst(isa.R1, isa.R2))
	root.IsH2P = true
	f.Add(root)
	for _, onlyLoops := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.OnlyLoops = onlyLoops
		f.Walk(&cfg)
		if n := testing.AllocsPerRun(10, func() { f.Walk(&cfg) }); n != 0 {
			t.Errorf("OnlyLoops=%v: a walk makes %.0f allocations, want 0", onlyLoops, n)
		}
	}
}
