package pipeline

import "teasim/internal/isa"

// PRF is the physical register file: values, readiness, and the main
// thread's free list. When a TEA companion is attached, an extra block of
// registers beyond the main pool is appended for the companion to manage
// with its own reference-counting scheme (the paper's partitioned PRs).
type PRF struct {
	Val   []uint64
	Ready []bool
	free  []uint16
	// mainCap limits how many main-pool registers may be in use; lowering it
	// below the pool size models the partition reserved for the TEA thread.
	inUse   int
	mainCap int
	poolLen int
}

// init builds the register file with mainRegs in the main pool, over
// caller-sized storage: val and ready span the main pool plus the block
// appended for a companion, and free has room for the whole main pool but
// the architectural registers, so Free never grows it. Arch registers are
// pre-mapped to PR 0..NumRegs-1.
func (p *PRF) init(mainRegs int, val []uint64, ready []bool, free []uint16) {
	*p = PRF{Val: val, Ready: ready, free: free, poolLen: mainRegs, mainCap: mainRegs}
	for i := 0; i < isa.NumRegs; i++ {
		p.Ready[i] = true
	}
	p.inUse = isa.NumRegs
	for i := mainRegs - 1; i >= isa.NumRegs; i-- {
		p.free = append(p.free, uint16(i))
	}
}

// SetMainCap adjusts the number of main-pool registers usable by the main
// thread (the TEA partition carve-out).
func (p *PRF) SetMainCap(n int) { p.mainCap = n }

// CanAlloc reports whether a main-pool register is available under the cap.
func (p *PRF) CanAlloc() bool { return len(p.free) > 0 && p.inUse < p.mainCap }

// Alloc takes a register from the main pool (caller checks CanAlloc).
func (p *PRF) Alloc() uint16 {
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.Ready[r] = false
	p.inUse++
	return r
}

// Free returns a main-pool register.
func (p *PRF) Free(r uint16) {
	p.free = append(p.free, r)
	p.inUse--
}

// ExtraBase returns the first register index of the companion block.
func (p *PRF) ExtraBase() int { return p.poolLen }

// Write sets a register value and marks it ready.
func (p *PRF) Write(r uint16, v uint64) {
	p.Val[r] = v
	p.Ready[r] = true
}
