package core

import "teasim/internal/isa"

// FillEntry is one retired instruction sampled into the Fill Buffer (§IV-C):
// the decoded uop, its PC, its memory address (if any), and the chain bit
// that seeds the Backward Dataflow Walk — set for H2P branches and for
// instructions that were also fetched by the TEA thread (§III-C), which is
// what lets chains grow past the Fill Buffer's size across walks.
type FillEntry struct {
	PC       uint64
	In       *isa.Inst
	Addr     uint64 // effective address for loads/stores
	IsH2P    bool
	ChainBit bool
	IsBranch bool
	Taken    bool // retired outcome (for basic-block segmentation)

	marked bool // result of the walk
}

// FillBuffer samples the retired instruction stream (§III-A). While a walk
// is in progress, retiring instructions are discarded, so the buffer sees a
// sampled subset of the stream — as in the paper.
type FillBuffer struct {
	entries  []FillEntry
	cap      int
	paranoia bool // Config.Paranoia: capacity tripwire in Add

	// Walk scratch, reused by every walk: the Source List (its address
	// buffer sized once, to Config.SourceMemSize) and walkOnlyLoops' marks.
	src       sourceList
	loopMarks []bool
}

// NewFillBuffer returns an empty buffer of the configured capacity.
func NewFillBuffer(capacity int) FillBuffer {
	return FillBuffer{entries: make([]FillEntry, 0, capacity), cap: capacity}
}

// Full reports whether the buffer is ready for a walk.
func (f *FillBuffer) Full() bool { return len(f.entries) >= f.cap }

// Add appends a retired instruction (caller checks Full and walk state).
func (f *FillBuffer) Add(e FillEntry) {
	if f.paranoia && len(f.entries) >= f.cap {
		panic("core paranoia: Fill Buffer Add beyond capacity (caller missed Full)")
	}
	f.entries = append(f.entries, e)
}

// Reset empties the buffer for the next filling phase.
func (f *FillBuffer) Reset() { f.entries = f.entries[:0] }

// Len returns the current occupancy.
func (f *FillBuffer) Len() int { return len(f.entries) }

// sourceList is the walk's live-in tracker (§III-A): a register bit-vector
// plus a small buffer of memory addresses.
type sourceList struct {
	regs   uint32
	mem    []uint64
	memCap int
	useMem bool
}

func (s *sourceList) hasReg(r isa.Reg) bool { return r != isa.R0 && s.regs&(1<<uint(r)) != 0 }
func (s *sourceList) addReg(r isa.Reg) {
	if r != isa.R0 {
		s.regs |= 1 << uint(r)
	}
}
func (s *sourceList) delReg(r isa.Reg) { s.regs &^= 1 << uint(r) }

func (s *sourceList) hasMem(addr uint64) bool {
	if !s.useMem {
		return false
	}
	for _, a := range s.mem {
		if a == addr {
			return true
		}
	}
	return false
}

func (s *sourceList) addMem(addr uint64) {
	if !s.useMem || s.hasMem(addr) {
		return
	}
	if len(s.mem) >= s.memCap {
		copy(s.mem, s.mem[1:]) // evict the oldest tracked address
		s.mem = s.mem[:len(s.mem)-1]
	}
	s.mem = append(s.mem, addr)
}

func (s *sourceList) delMem(addr uint64) {
	for i, a := range s.mem {
		if a == addr {
			s.mem = append(s.mem[:i], s.mem[i+1:]...)
			return
		}
	}
}

// emptySourceList returns the walk's Source List, emptied, over the reused
// address buffer.
func (f *FillBuffer) emptySourceList(cfg *Config) *sourceList {
	mem := f.src.mem[:0]
	if cap(mem) < cfg.SourceMemSize {
		mem = make([]uint64, 0, cfg.SourceMemSize)
	}
	f.src = sourceList{mem: mem, memCap: cfg.SourceMemSize, useMem: !cfg.NoMem}
	return &f.src
}

// Walk performs the Backward Dataflow Walk (§III-A) over the buffer,
// youngest to oldest, marking dependence-chain instructions. It returns the
// number of marked entries. Configuration switches implement the Fig. 10
// ablations:
//   - NoMem drops memory-dependence tracking;
//   - NoMasks restricts initiation points to H2P branches (TEA-thread chain
//     bits are ignored), limiting chain growth across walks;
//   - OnlyLoops traces each H2P branch's chain independently and stops it at
//     the previous dynamic instance of the same branch (loop-confined chains,
//     as in Branch Runahead-style schemes).
func (f *FillBuffer) Walk(cfg *Config) int {
	if cfg.OnlyLoops {
		return f.walkOnlyLoops(cfg)
	}
	src := f.emptySourceList(cfg)
	marked := 0
	for i := len(f.entries) - 1; i >= 0; i-- {
		e := &f.entries[i]
		e.marked = false
		seed := e.IsH2P || (e.ChainBit && !cfg.NoMasks)
		if f.visit(e, src, seed) {
			e.marked = true
			marked++
		}
	}
	return marked
}

// visit applies one walk step to entry e. seed forces the entry to be a
// chain member (initiation point). It returns whether e is in a chain.
func (f *FillBuffer) visit(e *FillEntry, src *sourceList, seed bool) bool {
	in := e.In
	inChain := seed
	if !inChain {
		// A producer is in a chain when it writes a tracked register or a
		// tracked memory location.
		if in.HasDest() && in.Rd != isa.R0 && src.hasReg(in.Rd) {
			inChain = true
		}
		if in.IsStore() && src.hasMem(e.Addr) {
			inChain = true
		}
	}
	if !inChain {
		return false
	}
	// Remove what this instruction produces; add what it consumes, keeping
	// the Source List the minimal live-in set (§III-A).
	if in.HasDest() && in.Rd != isa.R0 {
		src.delReg(in.Rd)
	}
	if in.IsStore() {
		src.delMem(e.Addr)
	}
	switch {
	case in.IsLoad():
		src.addReg(in.Rs1)
		src.addMem(e.Addr)
	case in.IsStore():
		src.addReg(in.Rs1)
		src.addReg(in.Rs2)
	default:
		var buf [2]isa.Reg
		for _, r := range in.Srcs(buf[:0]) {
			src.addReg(r)
		}
	}
	return true
}

// walkOnlyLoops traces each H2P branch independently, stopping that branch's
// trace at the previous dynamic instance of the same branch PC.
func (f *FillBuffer) walkOnlyLoops(cfg *Config) int {
	for i := range f.entries {
		f.entries[i].marked = false
	}
	marked := 0
	if cap(f.loopMarks) < len(f.entries) {
		f.loopMarks = make([]bool, len(f.entries))
	}
	scratch := f.loopMarks[:len(f.entries)]
	for i := len(f.entries) - 1; i >= 0; i-- {
		root := &f.entries[i]
		if !root.IsH2P {
			continue
		}
		src := f.emptySourceList(cfg)
		clear(scratch)
		bounded := false
		for j := i; j >= 0; j-- {
			e := &f.entries[j]
			if j < i && e.PC == root.PC {
				bounded = true // reached the previous instance: loop boundary
				break
			}
			if f.visit(e, src, j == i) {
				scratch[j] = true
			}
		}
		if !bounded {
			continue // no previous instance in the buffer: no loop chain
		}
		for j, m := range scratch {
			if m && !f.entries[j].marked {
				f.entries[j].marked = true
				marked++
			}
		}
	}
	return marked
}

// Segments groups the walked buffer into basic-block segments (§III-A/IV-C):
// runs of sequential instructions broken at branches (inclusive) and at
// control-flow discontinuities, each yielding a start PC, instruction count,
// and the chain bit-mask. fn is called once per segment.
func (f *FillBuffer) Segments(fn func(startPC uint64, count int, mask uint32)) {
	i := 0
	for i < len(f.entries) {
		start := f.entries[i].PC
		var mask uint32
		n := 0
		for i < len(f.entries) && n < 32 {
			e := &f.entries[i]
			if e.PC != start+uint64(n)*isa.InstBytes {
				break // discontinuity (sampling gap or taken-branch target)
			}
			if e.marked {
				mask |= 1 << uint(n)
			}
			n++
			i++
			if e.IsBranch {
				break // basic blocks end at branches
			}
		}
		if n == 0 { // defensive: always make progress
			i++
			continue
		}
		fn(start, n, mask)
	}
}
