package bpred

// BTB: set-associative branch target buffer (4k entries, 4-way in Table
// I). The decoupled branch predictor only "sees" branches that hit in the
// BTB; a branch missing from the BTB is implicitly predicted not-taken and
// is inserted when it resolves. The entry records the branch kind so the
// predictor stack knows which component to consult.

import "teasim/internal/isa"

// BranchKind classifies a branch for the prediction stack.
type BranchKind uint8

// Branch kinds stored in the BTB.
const (
	KindCond     BranchKind = iota
	KindDirect              // jmp / call (always taken, static target)
	KindIndirect            // jr / callr
	KindReturn              // ret
)

// KindOf maps an instruction to its branch kind. Panics on non-branches.
func KindOf(in *isa.Inst) BranchKind {
	switch {
	case in.IsCondBranch():
		return KindCond
	case in.IsReturn():
		return KindReturn
	case in.IsIndirect():
		return KindIndirect
	default:
		return KindDirect
	}
}

// Field order keeps a btbEntry at 16 bytes.
type btbEntry struct {
	target uint64 // last-seen target (static for direct branches)
	tag    uint32
	valid  bool
	kind   BranchKind
	isCall bool
	lru    uint8
}

// BTB is the branch target buffer, built by newBTB.
type BTB struct {
	entries  []btbEntry // sets × ways, flat
	ways     int
	setMask  uint32
	tagShift uint // bits above the set index
}

// newBTB builds a BTB with the given geometry (the set count must be a
// power of two; Config.check enforces this).
func newBTB(entries, ways int) BTB {
	sets := entries / ways
	shift := uint(2)
	for s := sets; s > 1; s >>= 1 {
		shift++
	}
	return BTB{
		entries:  make([]btbEntry, sets*ways),
		ways:     ways,
		setMask:  uint32(sets - 1),
		tagShift: shift,
	}
}

// set returns the ways of pc's set and its tag.
func (b *BTB) set(pc uint64) ([]btbEntry, uint32) {
	idx := int(uint32(pc>>2) & b.setMask)
	return b.entries[idx*b.ways : (idx+1)*b.ways], uint32(pc >> b.tagShift)
}

// Lookup returns the entry for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, kind BranchKind, isCall, ok bool) {
	ws, tag := b.set(pc)
	for w := range ws {
		e := &ws[w]
		if e.valid && e.tag == tag {
			b.touch(ws, w)
			return e.target, e.kind, e.isCall, true
		}
	}
	return 0, 0, false, false
}

// Insert records (or updates) a branch.
func (b *BTB) Insert(pc, target uint64, kind BranchKind, isCall bool) {
	ws, tag := b.set(pc)
	victim, oldest := 0, uint8(0)
	for w := range ws {
		e := &ws[w]
		if e.valid && e.tag == tag {
			e.target, e.kind, e.isCall = target, kind, isCall
			b.touch(ws, w)
			return
		}
		if !e.valid {
			victim = w
			oldest = 255
		} else if oldest != 255 && e.lru >= oldest {
			victim, oldest = w, e.lru
		}
	}
	ws[victim] = btbEntry{valid: true, tag: tag, target: target, kind: kind, isCall: isCall}
	b.touch(ws, victim)
}

// touch implements 2-bit pseudo-LRU aging: accessed way goes to 0, others age.
func (b *BTB) touch(ws []btbEntry, way int) {
	for w := range ws {
		e := &ws[w]
		if w == way {
			e.lru = 0
		} else if e.lru < 3 {
			e.lru++
		}
	}
}
