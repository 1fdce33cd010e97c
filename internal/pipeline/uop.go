package pipeline

import (
	"teasim/internal/bpred"
	"teasim/internal/isa"
)

// Uop is one dynamic micro-op flowing through the pipeline. Sequence numbers
// are assigned by the decoupled branch predictor as it emits fetch blocks,
// so a uop's Seq totally orders it against every other in-flight uop — the
// paper's "synchronized timestamps".
type Uop struct {
	Seq uint64
	PC  uint64
	In  *isa.Inst
	Cls isa.Class // cached In.Class()

	// Renamed operands (physical register indices).
	Prd, Prs1, Prs2 uint16
	PrevPrd         uint16
	HasDest         bool

	// Pipeline state.
	rsStamp    uint64 // RS residency stamp; see sched.go
	rsSlot     int32  // scheduler slot while InRS
	InRS       bool
	Issued     bool
	Executed   bool
	DoneAt     uint64 // writeback cycle once issued
	Squashed   bool
	FetchCycle uint64

	// complNext links uops filed in the same completion-ring slot (an
	// intrusive list: scheduling a writeback allocates nothing).
	complNext *Uop

	// destValid caches "writes an architectural register other than R0",
	// set at fetch from the instruction (or its predecoded template).
	destValid bool

	// Memory state.
	Addr     uint64
	AddrDone bool
	LQIdx    int
	SQIdx    int

	// Store-queue disambiguation memo (main-thread loads): while the SQ
	// epoch is unchanged, a load that scanned to a "blocked" verdict would
	// scan to the same verdict again, so the retry skips the walk. The
	// epoch covers every scan input (see Core.storeEpoch).
	sqEpoch   uint64
	sqBlocked bool

	// MSHR-full memo (main-thread loads): a cache probe rejected for full
	// MSHRs is rejected again on every retry before memWake — the earliest
	// cycle an outstanding fill can free an MSHR. No other event can flip
	// the verdict: the load's line can only be installed by an access that
	// the same full MSHRs also reject, and new fills only extend occupancy.
	memWake uint64

	// Branch state.
	Rec    *BranchRec // in-flight branch queue entry (branches only)
	Taken  bool       // actual outcome, valid once Executed
	Target uint64

	// Execution results, computed at issue, applied at writeback.
	Val       uint64
	StoreData uint64

	// TEA is set for companion-owned uops sharing the backend. CompDone is
	// companion bookkeeping: set once the companion has released the uop's
	// resources (issued-and-completed, or squashed).
	TEA      bool
	CompDone bool

	// TEA interaction: set when the TEA thread's Block Cache bit-mask marked
	// this main-thread instruction as part of an H2P dependence chain (used
	// to seed future Backward Dataflow Walks and for RAT poisoning).
	ChainMarked bool
	MaskSeen    bool // a Block Cache entry covered this instruction's block

	pooled bool
}

// isBranch reports whether the uop redirects control flow (cached class).
func (u *Uop) isBranch() bool { return u.Cls == isa.ClassBranch || u.Cls == isa.ClassJump }

func (u *Uop) isLoad() bool  { return u.Cls == isa.ClassLoad }
func (u *Uop) isStore() bool { return u.Cls == isa.ClassStore }

// BranchRec is an entry of the in-flight branch queue: one record per branch
// instruction emitted by the decoupled BP, holding the prediction, the
// recovery snapshot, and any precomputation result delivered by a Companion.
type BranchRec struct {
	Seq uint64
	PC  uint64
	In  *isa.Inst

	Pred       bpred.Pred // predictor contexts + recovery snapshot
	PredTaken  bool
	PredTarget uint64
	PredNext   uint64 // current stream continuation (corrected by TEA/resteers)
	OrigNext   uint64 // the ORIGINAL BP continuation (for MPKI accounting)

	// Precomputation (TEA/runahead) results.
	Precomputed bool
	PreTaken    bool
	PreTarget   uint64
	PreCycle    uint64 // cycle the precomputation resolved
	PreFlushed  bool   // precomputation issued an early flush
	PreBlocked  bool   // poisoning blocked this record from flushing

	// Resolution bookkeeping.
	Resolved     bool
	ActualTaken  bool
	ActualTarget uint64
	ResolveCycle uint64
	WasMispred   bool // actual differs from the ORIGINAL BP prediction

	pooled bool
}

// actualNext returns the post-branch PC for the actual outcome.
func (r *BranchRec) actualNext() uint64 {
	if r.ActualTaken {
		return r.ActualTarget
	}
	return r.PC + isa.InstBytes
}

// FetchBlock is one unit of the decoupled BP's output stream: a run of
// sequential instructions ending at the first predicted-taken branch (or the
// 32-instruction cap). The same blocks feed the main thread's fetch stage
// and, when a TEA companion is attached, its shadow fetch queue.
type FetchBlock struct {
	StartPC uint64
	SeqBase uint64
	Count   int
	// Branches holds the in-flight branch records for every branch
	// instruction in the block, in program order (index within block). Its
	// capacity is MaxBlockInstrs, carved with the block's pool slab, so
	// predict never grows it.
	Branches []blockBranch
	// NextPC is where the stream continues after this block.
	NextPC uint64
	Cycle  uint64 // cycle the BP emitted this block

	// decIdx is the predecoded-template index of StartPC (blocks are
	// sequential runs, so instruction i's template is decIdx+i).
	decIdx int32

	// TEAMask marks instructions in this block that belong to H2P dependence
	// chains, set when the TEA thread reads the Block Cache entry for this
	// block (the paper's bit-mask queue feeding the main thread, §IV-D).
	TEAMask      uint32
	TEAMaskValid bool

	pooled bool
}

type blockBranch struct {
	idx int // instruction index within the block
	rec *BranchRec
}

// instPC returns the PC of instruction i within the block.
func (b *FetchBlock) instPC(i int) uint64 {
	return b.StartPC + uint64(i)*isa.InstBytes
}

// BranchAt returns the in-flight branch record for the branch at
// instruction index idx, or nil.
func (b *FetchBlock) BranchAt(idx int) *BranchRec {
	for _, bb := range b.Branches {
		if bb.idx == idx {
			return bb.rec
		}
	}
	return nil
}

// truncate drops instructions younger than seq (keeps seq itself).
func (b *FetchBlock) truncate(seq uint64) {
	if seq < b.SeqBase {
		b.Count = 0
		b.Branches = b.Branches[:0]
		return
	}
	keep := int(seq-b.SeqBase) + 1
	if keep < b.Count {
		b.Count = keep
		for len(b.Branches) > 0 && b.Branches[len(b.Branches)-1].idx >= keep {
			b.Branches = b.Branches[:len(b.Branches)-1]
		}
	}
}
