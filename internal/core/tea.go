package core

import (
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/internal/slab"
	"teasim/internal/telemetry"
)

// TEA is the precomputation thread, attached to a pipeline.Core as its
// Companion. See the package comment for the architecture overview.
type TEA struct {
	Cfg  Config
	core *pipeline.Core

	H2P   H2PTable
	Fill  FillBuffer
	BC    BlockCache
	Store StoreCache

	// Backward Dataflow Walk state machine (§IV-C).
	walking    bool
	walkDoneAt uint64

	// Periodic maintenance.
	retired       uint64
	nextDecay     uint64
	nextMaskReset uint64

	// Adaptive backoff: when a decay window delivers more wrong-flush
	// damage than covered mispredictions, precomputation pauses for the
	// next window (implementation policy; the paper's termination rules
	// assume sub-0.1% wrongness, which synthetic chain-dense kernels with
	// memory-carried dependences can exceed).
	winCovered   uint64
	winIncorrect uint64
	winWrong     uint64 // raw wrong precomputations in the window
	winRight     uint64
	backoffUntil uint64
	// loadWait escalates to conservative TEA load ordering (loads wait for
	// older in-flight TEA stores) when a window shows wrong precomputations
	// rivalling covered ones — typically chains whose store→load producer
	// pairs race in the out-of-order backend. If accuracy stays poor even
	// with ordering, the backoff pauses precomputation instead.
	loadWait bool

	// Thread state. The thread arms at every flush: that is the only point
	// where the recovered main RAT, the shadow RAT, and the redirected fetch
	// stream are exactly synchronized ("the recovered state of the RAT is
	// copied over to both the main RAT and the shadow RAT", §IV-F). It then
	// activates on the first Block Cache hit of the new stream.
	active       bool
	armed        bool
	draining     bool
	blockFlushes bool
	lateCount    int
	// skipPRStall is set by Quiescent when the active thread's pipe head is
	// wedged on an empty TEA register pool, so OnSkip knows the skipped
	// ticks would each have counted a PRStallCycles.
	skipPRStall bool

	// Shadow rename (§IV-D) and the reference-counted TEA register pool
	// (§IV-E: valid bit + 5-bit reference counter per PR, no ROB).
	shadowRAT [isa.NumRegs]uint16
	prBase    uint16
	prFree    []uint16
	refcnt    []uint8
	valid     []bool
	pendWrite []bool
	allocated []bool
	// keptScratch is unmapTEARegs's per-flush keep mask, reused across calls.
	keptScratch []bool

	// TEA frontend pipe (fetched chain uops awaiting shadow rename) and
	// in-flight inserted uops (for squash/drain accounting). frontQ pops by
	// advancing frontHead instead of re-slicing, so the backing array keeps
	// its capacity across pop/append churn.
	frontQ      []*pipeline.Uop
	frontHead   int
	inflight    []*pipeline.Uop
	outstanding int
	// pendStores tracks in-flight (renamed, not yet executed) TEA stores so
	// TEA loads can wait for older producers (§III-D chains through memory).
	pendStores []uint64

	// curSeg carries an in-progress Block Cache segment across cycles when
	// the per-cycle uop budget runs out mid-segment (resuming must not look
	// up a mid-segment PC — only segment starts are tagged).
	curSeg struct {
		valid    bool
		seqBase  uint64 // identifies the fetch block
		expectPC uint64 // nonzero: awaiting the sequential successor block
		startOff int
		end      int
		mask     uint32
	}

	// ckpts checkpoints the shadow RAT at the rename of every TEA branch
	// (§IV-F: "checkpointing the contents of the shadow RAT instead of the
	// main RAT when the TEA thread is running far ahead"). TEA branches
	// rename in ascending sequence order, so the slice stays seq-sorted:
	// lookups binary-search, flushes truncate the tail, and the backing
	// array is reused across the whole run (no per-branch map traffic).
	ckpts []ratCkpt

	poison uint32 // poisoned architectural registers (§IV-G)

	// wrongTbl tracks per-branch precomputation accuracy; branches whose
	// wrong-rate exceeds ~1/8 stop issuing early flushes until the counters
	// age out (halved periodically). This keeps persistently mis-computed
	// chains (e.g. memory mutated by in-flight main-thread stores) from
	// paying the double-flush penalty over and over (§IV-G's intent).
	wrongTbl wrongTable

	// Telemetry (see telemetry.go): interval snapshot and the cycles-saved
	// histogram (nil when no collector is attached).
	ivLast    ivSnapshot
	savedHist *telemetry.Histogram

	Stats Stats
}

// refcntMax is the 5-bit reference-counter saturation point. Saturated
// counters pin their register until the next thread restart (the paper
// notes overflow is rare and tolerable).
const refcntMax = 31

// New builds a TEA thread and attaches it to the core. Its structures live
// inline, and every list is sized here from the configuration: the register
// pool's flags share one array, and the thread's uop lists another.
func New(cfg Config, c *pipeline.Core) *TEA {
	t := &TEA{
		Cfg:           cfg,
		core:          c,
		H2P:           NewH2PTable(cfg.H2PSets, cfg.H2PWays, cfg.H2PMax, cfg.H2PThreshold),
		Fill:          NewFillBuffer(cfg.FillBufSize),
		BC:            NewBlockCache(&cfg),
		Store:         NewStoreCache(cfg.StoreCacheLines),
		prBase:        uint16(c.PRF.ExtraBase()),
		nextDecay:     cfg.H2PDecayPeriod,
		nextMaskReset: cfg.MaskResetPeriod,
	}
	if cfg.Paranoia {
		t.H2P.paranoia = true
		t.Fill.paranoia = true
		t.BC.paranoia = true
	}
	n := cfg.PRPartition
	flags := slab.New[bool](4 * n)
	t.valid, t.pendWrite, t.allocated, t.keptScratch = flags.Take(n), flags.Take(n), flags.Take(n), flags.Take(n)
	t.refcnt = make([]uint8, n)
	t.prFree = make([]uint16, 0, n)
	// The frontend pipe and the in-flight list keep what the thread fetched
	// and inserted since its last flush or drain: a Fill Buffer's worth of
	// chain uops beside a full RS partition. In-flight stores and
	// checkpointed branches are partition residents.
	uops := slab.New[*pipeline.Uop](2 * (n + cfg.FillBufSize))
	t.frontQ, t.inflight = uops.Empty(n+cfg.FillBufSize), uops.Empty(n+cfg.FillBufSize)
	words := slab.New[uint64](n + cfg.SourceMemSize)
	t.pendStores = words.Empty(n)
	t.Fill.src.mem = words.Empty(cfg.SourceMemSize)
	t.ckpts = make([]ratCkpt, 0, n)
	t.wrongTbl.init(1024)
	t.resetPRState()
	c.Attach(t)
	t.telemRegister()
	return t
}

func (t *TEA) resetPRState() {
	t.prFree = t.prFree[:0]
	for i := len(t.refcnt) - 1; i >= 0; i-- {
		t.prFree = append(t.prFree, t.prBase+uint16(i))
		t.refcnt[i] = 0
		t.valid[i] = false
		t.pendWrite[i] = false
		t.allocated[i] = false
	}
}

func (t *TEA) isTEAPR(p uint16) bool {
	return p >= t.prBase && int(p-t.prBase) < len(t.refcnt)
}

func (t *TEA) tryFree(p uint16) {
	if !t.isTEAPR(p) {
		return
	}
	i := p - t.prBase
	if t.allocated[i] && !t.valid[i] && t.refcnt[i] == 0 && !t.pendWrite[i] {
		t.allocated[i] = false
		t.prFree = append(t.prFree, p)
	}
}

func (t *TEA) allocPR() (uint16, bool) {
	if len(t.prFree) == 0 {
		return 0, false
	}
	p := t.prFree[len(t.prFree)-1]
	t.prFree = t.prFree[:len(t.prFree)-1]
	i := p - t.prBase
	t.allocated[i] = true
	t.valid[i] = true
	t.pendWrite[i] = true
	t.refcnt[i] = 0
	// The register file slot may hold a stale ready value from a previous
	// allocation; consumers must wait for the new producer's writeback.
	t.core.PRF.Ready[p] = false
	return p, true
}

// --- Companion interface ---

// OnBlock is unused: the TEA frontend reads blocks via the core's shadow
// fetch-queue cursor.
func (t *TEA) OnBlock(*pipeline.FetchBlock) {}

// OnMainFetch is unused: Block Cache bit-masks reach main-thread uops
// through the fetch block's TEAMask fields.
func (t *TEA) OnMainFetch(*pipeline.Uop) {}

// OverridePrediction never fires: the TEA thread corrects the stream with
// early flushes instead of overriding the predictor (§I, §II-C).
func (t *TEA) OverridePrediction(uint64, uint64) (bool, bool) { return false, false }

// OnRetire trains the H2P table, classifies precomputation outcomes,
// performs RAT poisoning, and feeds the Fill Buffer.
func (t *TEA) OnRetire(u *pipeline.Uop) {
	t.retired++
	if t.retired >= t.nextDecay {
		t.nextDecay += t.Cfg.H2PDecayPeriod
		t.H2P.Decay()
		t.Stats.H2PDecays++
		if !t.loadWait && t.winWrong > 16 && t.winWrong*8 > t.winRight {
			// Accuracy is degrading: enforce producer ordering on TEA loads
			// before giving up on precomputation.
			t.loadWait = true
			t.Stats.LoadWaitEnables++
		} else if t.winIncorrect > 8 && t.winIncorrect*2 > t.winCovered {
			t.backoffUntil = t.retired + t.Cfg.H2PDecayPeriod
			t.Stats.Backoffs++
			if t.active {
				t.terminate(false)
			}
		}
		t.winCovered, t.winIncorrect, t.winWrong, t.winRight = 0, 0, 0, 0
	}
	if t.retired >= t.nextMaskReset {
		t.nextMaskReset += t.Cfg.MaskResetPeriod
		t.BC.ResetMasks()
		t.Stats.MaskResets++
	}

	isBranch := u.In.IsBranch()
	if isBranch && u.Rec != nil {
		rec := u.Rec
		if rec.WasMispred {
			t.H2P.RecordMispredict(u.PC)
			t.classifyMisprediction(rec)
		}
		// Accuracy accounting covers precomputations that arrived before the
		// main branch resolved; late results never influenced the pipeline
		// and are tracked in the "late" category instead (§V-B).
		if rec.Precomputed && rec.PreCycle < rec.ResolveCycle {
			t.Stats.Precomputed++
			e := t.wrongTbl.get(u.PC)
			if e.right+e.wrong >= 1024 {
				e.right /= 2
				e.wrong /= 2
			}
			if precomputeCorrect(rec) {
				e.right++
				t.winRight++
				t.Stats.PreCorrect++
			} else {
				e.wrong++
				t.winWrong++
				t.Stats.PreWrong++
			}
		}
	}

	// RAT poisoning (§IV-G): only meaningful while the thread is active and
	// the Block Cache covered this instruction's block.
	if t.active && u.MaskSeen {
		t.poisonCheck(u)
	}

	// Fill Buffer sampling (§IV-C): drop retiring instructions mid-walk.
	if !t.walking {
		isH2P := isBranch && t.H2P.IsH2P(u.PC)
		t.Fill.Add(FillEntry{
			PC:       u.PC,
			In:       u.In,
			Addr:     u.Addr,
			IsH2P:    isH2P,
			ChainBit: isH2P || (u.ChainMarked && !t.Cfg.NoMasks),
			IsBranch: isBranch,
			Taken:    u.Taken,
		})
		if t.Fill.Full() {
			t.walking = true
			t.walkDoneAt = t.core.Cycle + t.Cfg.WalkCycles
		}
	}
}

func precomputeCorrect(rec *pipeline.BranchRec) bool {
	return rec.PreTaken == rec.ActualTaken &&
		(!rec.ActualTaken || rec.PreTarget == rec.ActualTarget)
}

func (t *TEA) classifyMisprediction(rec *pipeline.BranchRec) {
	switch {
	case !rec.Precomputed:
		t.Stats.UncoveredMisp++
	case rec.PreCycle >= rec.ResolveCycle:
		t.Stats.LateMisp++
	case !precomputeCorrect(rec):
		t.Stats.IncorrectMisp++
		if rec.PreFlushed {
			t.winIncorrect++
		}
	case rec.PreFlushed:
		// The early flush actually fired: misprediction penalty shrunk.
		t.Stats.CoveredMisp++
		t.winCovered++
		t.Stats.CyclesSaved += rec.ResolveCycle - rec.PreCycle
		if t.savedHist != nil {
			t.savedHist.Observe(float64(rec.ResolveCycle - rec.PreCycle))
		}
	default:
		// Correct and early, but the flush was suppressed or disabled:
		// no benefit was delivered.
		t.Stats.UncoveredMisp++
	}
}

// poisonCheck implements §IV-G: unmasked instructions poison their
// destination AR; masked instructions clear it, and a masked instruction
// reading a poisoned AR reveals an incorrect dependence chain.
func (t *TEA) poisonCheck(u *pipeline.Uop) {
	hasDest := u.In.HasDest() && u.In.Rd != isa.R0
	if !u.ChainMarked {
		if hasDest {
			t.poison |= 1 << uint(u.In.Rd)
			t.Stats.PoisonSets++
		}
		return
	}
	var buf [2]isa.Reg
	for _, r := range u.In.Srcs(buf[:0]) {
		if r != isa.R0 && t.poison&(1<<uint(r)) != 0 {
			t.Stats.PoisonViolations++
			t.Stats.TermIncorrect++
			t.terminate(true)
			return
		}
	}
	if hasDest {
		t.poison &^= 1 << uint(u.In.Rd)
	}
}

// OnFlush restores TEA state after any flush (§IV-F): uops younger than the
// branch are squashed, the recovered RAT is copied into the shadow RAT, and
// the shadow fetch cursor resumes with the corrected stream. Issued TEA uops
// older than the branch stay in flight and may still deliver early flushes
// (nested/out-of-order resolution).
func (t *TEA) OnFlush(seq uint64, branchRenamed bool) {
	// Un-renamed fetched uops: drop them all (their rename state is gone).
	// They never reached the shared backend, so this is their last reference.
	for _, u := range t.frontQ[t.frontHead:] {
		t.core.RecycleCompanionUop(u)
	}
	t.frontQ, t.frontHead = t.frontQ[:0], 0

	// Squash issued TEA uops younger than the branch; their completion
	// drains through UopExecuted, which releases their registers.
	// (Never-issued ones were already handled via UopSquashed.) Released
	// uops leave the in-flight list here — the last reference anywhere.
	live := t.inflight[:0]
	for _, u := range t.inflight {
		if u.CompDone {
			t.core.RecycleCompanionUop(u)
			continue
		}
		if u.Seq > seq {
			u.Squashed = true
		}
		live = append(live, u)
	}
	t.inflight = live

	// Drop checkpoints of squashed TEA branches (the seq-sorted tail).
	t.ckpts = t.ckpts[:t.ckptSearch(seq+1)]

	// Resynchronize the shadow RAT with the post-flush stream. If the main
	// thread had renamed the branch, the recovered main RAT is the exact
	// program state at the branch. If not — the TEA thread was running far
	// ahead and partially flushed the frontend — recover from the shadow
	// RAT checkpoint taken when the TEA branch renamed (§IV-F).
	ckpt, hasCkpt := t.ckptLookup(seq)
	switch {
	case branchRenamed:
		t.Stats.FlushMainSync++
		t.shadowRAT = t.core.RATSnapshot()
		t.unmapTEARegs(nil)
		if !t.draining {
			t.armed = true
		}
	case hasCkpt:
		t.Stats.FlushCkptSync++
		t.shadowRAT = ckpt
		t.unmapTEARegs(&ckpt)
		if !t.draining {
			t.armed = true
		}
	default:
		t.Stats.FlushNoSync++
		// No synchronization point (e.g. a decode re-steer of a branch the
		// TEA thread never renamed): drain and wait for the next flush.
		t.shadowRAT = t.core.RATSnapshot()
		t.unmapTEARegs(nil)
		if t.active {
			t.terminate(false)
		}
		t.armed = false
	}
	t.poison = 0
	t.curSeg.valid = false
	t.core.TEAResetCursor()
}

// unmapTEARegs invalidates all TEA-pool registers except those still mapped
// by keep (a restored shadow RAT checkpoint), then frees the releasable ones.
// The kept scratch is reused across flushes (this runs on every flush; a
// fresh slice per call was ~10% of the simulator's steady-state allocations).
func (t *TEA) unmapTEARegs(keep *[isa.NumRegs]uint16) {
	kept := t.keptScratch
	clear(kept)
	if keep != nil {
		for _, p := range keep {
			if t.isTEAPR(p) {
				kept[p-t.prBase] = true
			}
		}
	}
	for i := range t.valid {
		if kept[i] {
			t.valid[i] = true
			continue
		}
		if t.valid[i] {
			t.valid[i] = false
			t.tryFree(t.prBase + uint16(i))
		}
	}
}

// PrecomputationWrong reacts to the in-flight branch queue fail-safe
// (§IV-G): the thread is terminated (drained), and branches that keep
// precomputing wrongly are suppressed from issuing early flushes until the
// counter decays.
func (t *TEA) PrecomputationWrong(pc uint64) {
	t.Stats.FailSafeWrong++
	// No explicit termination: when the wrong outcome redirected the stream,
	// the fail-safe flush itself resynchronizes the thread through OnFlush.
	// Retirement-time accuracy tracking suppresses persistent offenders.
}

// suppressed reports whether early flushes for pc are currently disabled
// (wrong-rate above ~1/8 with enough samples).
func (t *TEA) suppressed(pc uint64) bool {
	e := t.wrongTbl.lookup(pc)
	return e != nil && e.wrong >= uint32(t.Cfg.WrongLimit) && e.wrong*8 > e.right
}

// UopSquashed handles companion uops squashed before they issued (no
// completion callback will come).
func (t *TEA) UopSquashed(u *pipeline.Uop) {
	t.outstanding--
	t.releaseUop(u)
	if t.draining && t.outstanding == 0 {
		t.finishDrain()
	}
}

// Tick runs the TEA frontend each cycle: commit finished walks, try to
// (re)activate, fetch chain uops from the Block Cache, and shadow-rename
// them into the shared backend with issue priority.
func (t *TEA) Tick() {
	if t.walking && t.core.Cycle >= t.walkDoneAt {
		t.commitWalk()
	}
	if t.draining && t.outstanding == 0 {
		t.finishDrain()
	}
	if t.core.TEACursorInvalid() {
		// The main thread consumed the stream past our cursor: the shadow
		// RAT no longer corresponds to the next block. Lose the arm (and
		// the thread, if running) until the next flush re-synchronizes.
		t.armed = false
		if t.active {
			t.Stats.TermOvertaken++
			t.terminate(false)
		}
	}
	if !t.active {
		t.Stats.InactiveCycles++
		if t.armed && !t.draining && t.retired >= t.backoffUntil {
			t.tryActivate()
		}
		return
	}
	t.fetchChainUops()
	t.renameAndInsert()
}

func (t *TEA) commitWalk() {
	marked := t.Fill.Walk(&t.Cfg)
	t.Stats.WalksDone++
	t.Stats.WalkMarked += uint64(marked)
	t.Fill.Segments(func(startPC uint64, count int, mask uint32) {
		t.BC.Update(startPC, count, mask)
	})
	t.Fill.Reset()
	t.walking = false
}

// tryActivate starts the thread when the first block of the post-flush
// stream hits in the Block Cache (§IV-D: "initiated on a hit in the Block
// Cache"). The shadow RAT was synchronized when the flush armed the thread;
// a Block Cache miss disarms it until the next flush (starting mid-stream
// without that synchronization would precompute with stale values).
func (t *TEA) tryActivate() {
	if t.BC.Updates == 0 {
		return
	}
	blk := t.core.TEANextBlockPeek()
	if blk == nil {
		return // the redirected stream has not produced a block yet
	}
	if _, _, hit := t.BC.Lookup(blk.StartPC); !hit {
		t.armed = false
		t.Stats.ArmMiss++
		return
	}
	t.active = true
	t.armed = false
	t.Stats.Activations++
	t.Store.Reset()
	t.poison = 0
	t.lateCount = 0
	t.blockFlushes = false
	t.core.SetPartition(true, t.Cfg.RSPartition, t.Cfg.PRPartition)
}

// fetchChainUops reads dependence-chain segments from the Block Cache along
// the shadow fetch-address stream: up to SegMaxUops chain uops per cycle
// across at most two blocks (§IV-C/D).
func (t *TEA) fetchChainUops() {
	budget := t.Cfg.SegMaxUops
	lookups := 0
	blocksDone := 0
	for budget > 0 && blocksDone < 2 && lookups < 4 {
		if t.core.TEALeadBlocks() >= t.Cfg.MaxLeadBlocks {
			return // shadow fetch queue full: far enough ahead
		}
		blk, off := t.core.TEACursor()
		if blk == nil {
			return // caught up with the branch predictor
		}
		if off >= blk.Count {
			t.core.TEAAdvanceBlock()
			t.curSeg.valid = false
			blocksDone++
			continue
		}

		var mask uint32
		var segStart, segEnd int
		if t.curSeg.valid && t.curSeg.expectPC != 0 &&
			t.curSeg.expectPC == blk.StartPC && off == 0 {
			// The awaited sequential successor block arrived: bind the
			// carried segment remainder to it.
			t.curSeg.expectPC = 0
			t.curSeg.seqBase = blk.SeqBase
			blk.TEAMask |= t.curSeg.mask >> uint(-t.curSeg.startOff)
			blk.TEAMaskValid = true
			mask, segStart, segEnd = t.curSeg.mask, t.curSeg.startOff, t.curSeg.end
		} else if t.curSeg.valid && t.curSeg.expectPC == 0 &&
			t.curSeg.seqBase == blk.SeqBase &&
			off >= t.curSeg.startOff+1 && off < t.curSeg.end {
			// Resume the segment interrupted by the uop budget.
			mask, segStart, segEnd = t.curSeg.mask, t.curSeg.startOff, t.curSeg.end
		} else {
			pc := blk.StartPC + uint64(off)*isa.InstBytes
			m, count, hit := t.BC.Lookup(pc)
			lookups++
			if !hit {
				t.Stats.TermBCMiss++
				t.terminate(false)
				return
			}
			mask, segStart = m, off
			segEnd = off + count
			t.curSeg.valid = true
			t.curSeg.expectPC = 0
			t.curSeg.seqBase = blk.SeqBase
			t.curSeg.startOff = segStart
			t.curSeg.end = segEnd
			t.curSeg.mask = mask
			// Publish the mask so main-thread instructions get chain-marked
			// (Fill Buffer seeds, §III-C) and poison-checked (§IV-G).
			blk.TEAMask |= mask << uint(off)
			blk.TEAMaskValid = true
		}

		segLimit := segEnd
		if segLimit > blk.Count {
			segLimit = blk.Count
		}
		i := off
		for ; i < segLimit && budget > 0; i++ {
			if mask&(1<<uint(i-segStart)) != 0 {
				t.fetchUop(blk, i)
				budget--
			}
		}
		t.core.TEASetOffset(i)
		if i < segLimit {
			return // uop budget exhausted mid-segment; resume next cycle
		}
		if segLimit >= blk.Count {
			endPC := blk.StartPC + uint64(blk.Count)*isa.InstBytes
			consumed := blk.Count - segStart
			t.core.TEAAdvanceBlock()
			blocksDone++
			t.curSeg.valid = false
			if segEnd > blk.Count {
				// The Block Cache segment extends past this fetch block
				// (the BP capped the block at 32 instructions mid-segment).
				// Carry the remainder into the sequential successor block,
				// which may not have been produced by the BP yet.
				t.curSeg.valid = true
				t.curSeg.expectPC = endPC
				t.curSeg.startOff = -consumed
				t.curSeg.end = segEnd - blk.Count
				t.curSeg.mask = mask
			}
		} else {
			t.curSeg.valid = false
		}
	}
}

func (t *TEA) fetchUop(blk *pipeline.FetchBlock, idx int) {
	pc := blk.StartPC + uint64(idx)*isa.InstBytes
	in, cls, ok := t.core.InstMeta(pc)
	if !ok {
		return
	}
	u := t.core.NewCompanionUop()
	u.Seq = blk.SeqBase + uint64(idx)
	u.PC = pc
	u.In = in
	u.Cls = cls
	u.TEA = true
	u.FetchCycle = t.core.Cycle
	if in.IsBranch() {
		u.Rec = blk.BranchAt(idx)
	}
	t.frontQ = append(t.frontQ, u)
	t.Stats.UopsFetched++
}

// renameAndInsert moves rename-ready TEA uops through the shadow RAT into
// the shared backend, claiming issue slots with priority (§IV-D/E).
func (t *TEA) renameAndInsert() {
	for t.frontHead < len(t.frontQ) {
		u := t.frontQ[t.frontHead]
		if u.FetchCycle+t.Cfg.FrontLatency > t.core.Cycle {
			break
		}
		if t.core.IssueSlotsLeft() == 0 || t.core.CompanionRSFree() == 0 {
			break
		}
		hasDest := u.In.HasDest() && u.In.Rd != isa.R0
		if hasDest && len(t.prFree) == 0 {
			t.Stats.PRStallCycles++
			break
		}
		t.frontHead++

		if u.In.IsBranch() {
			// Checkpoint the shadow RAT for partial-frontend-flush recovery.
			// Renames proceed in ascending seq order, keeping ckpts sorted.
			t.ckpts = append(t.ckpts, ratCkpt{seq: u.Seq, rat: t.shadowRAT})
		}
		u.Prs1 = t.shadowRAT[u.In.Rs1]
		u.Prs2 = t.shadowRAT[u.In.Rs2]
		t.bumpRef(u.Prs1)
		t.bumpRef(u.Prs2)
		u.HasDest = hasDest
		if hasDest {
			prev := t.shadowRAT[u.In.Rd]
			p, _ := t.allocPR()
			u.Prd = p
			t.shadowRAT[u.In.Rd] = p
			if t.isTEAPR(prev) {
				t.valid[prev-t.prBase] = false
				t.tryFree(prev)
			}
		}
		if !t.core.InsertCompanionUop(u) {
			// Capacity checked above; this is unreachable, but recover by
			// unwinding the rename if it ever trips.
			panic("core: InsertCompanionUop rejected after capacity check")
		}
		if u.In.IsStore() {
			t.pendStores = append(t.pendStores, u.Seq)
		}
		t.outstanding++
		t.inflight = append(t.inflight, u)
		t.Stats.UopsRenamed++
	}
	if t.frontHead == len(t.frontQ) {
		// Drained: rewind so appends reuse the backing array's capacity.
		t.frontQ, t.frontHead = t.frontQ[:0], 0
	}
}

func (t *TEA) bumpRef(p uint16) {
	if t.isTEAPR(p) && t.refcnt[p-t.prBase] < refcntMax {
		t.refcnt[p-t.prBase]++
	}
}

func (t *TEA) dropRef(p uint16) {
	if !t.isTEAPR(p) {
		return
	}
	i := p - t.prBase
	if t.refcnt[i] > 0 && t.refcnt[i] < refcntMax {
		t.refcnt[i]--
		if t.refcnt[i] == 0 {
			t.tryFree(p)
		}
	}
}

// OlderStorePending reports whether a TEA store older than (but close to)
// seq is still in flight. TEA loads wait for such stores: short-range
// store→load pairs are producer chains (arguments through the stack,
// §III-D), while distant pending stores (other loop iterations' updates)
// would only serialize the thread.
func (t *TEA) OlderStorePending(seq uint64) bool {
	if !t.loadWait {
		return false
	}
	win := uint64(t.Cfg.StoreWaitWindow)
	for _, s := range t.pendStores {
		if s < seq && seq-s <= win {
			return true
		}
	}
	return false
}

func (t *TEA) dropPendStore(seq uint64) {
	for i, s := range t.pendStores {
		if s == seq {
			t.pendStores = append(t.pendStores[:i], t.pendStores[i+1:]...)
			return
		}
	}
}

// releaseUop returns a uop's register references to the pool (exactly once).
func (t *TEA) releaseUop(u *pipeline.Uop) {
	if u.CompDone {
		return
	}
	u.CompDone = true
	if u.In.IsStore() {
		t.dropPendStore(u.Seq)
	}
	if u.In.IsBranch() {
		t.ckptDrop(u.Seq)
	}
	t.dropRef(u.Prs1)
	t.dropRef(u.Prs2)
	if u.HasDest && t.isTEAPR(u.Prd) {
		i := u.Prd - t.prBase
		t.pendWrite[i] = false
		t.tryFree(u.Prd)
	}
}

// --- execution hooks ---

// LoadValue consults the TEA store data cache for a TEA load.
func (t *TEA) LoadValue(addr uint64, size int) (uint64, bool) {
	return t.Store.Read(addr, size)
}

// StoreExec buffers a TEA store's data (§IV-E).
func (t *TEA) StoreExec(addr uint64, data uint64, size int) {
	t.Store.Write(addr, data, size)
}

// UopExecuted retires a TEA uop from the backend (normal or squashed),
// driving the reference-counted register freeing and drain accounting.
func (t *TEA) UopExecuted(u *pipeline.Uop) {
	t.outstanding--
	t.releaseUop(u)
	if t.draining && t.outstanding == 0 {
		t.finishDrain()
	}
}

// BranchResolved delivers a TEA branch outcome. Sharing the main-thread
// branch's timestamp, it can correct the in-flight branch queue entry and
// issue an early misprediction flush through the existing flush mechanism
// (§IV-F).
func (t *TEA) BranchResolved(u *pipeline.Uop, taken bool, target uint64) {
	t.Stats.Resolved++
	rec := t.core.Branch(u.Seq)
	if rec == nil || rec.PC != u.PC {
		t.lateEvent() // main branch already left the pipeline
		return
	}
	if rec.Resolved {
		// Record the precomputation for accounting even though it lost the
		// race (the paper's "late" category).
		rec.Precomputed = true
		rec.PreTaken, rec.PreTarget, rec.PreCycle = taken, target, t.core.Cycle
		t.lateEvent()
		return
	}
	rec.Precomputed = true
	rec.PreTaken, rec.PreTarget, rec.PreCycle = taken, target, t.core.Cycle

	next := target
	if !taken {
		next = rec.PC + isa.InstBytes
	}
	if next == rec.PredNext {
		t.Stats.Agreements++
		return
	}
	if t.blockFlushes || t.suppressed(rec.PC) {
		t.Stats.BlockedFlushes++
		return
	}
	if t.Cfg.DisableEarlyFlush {
		return
	}
	rec.PreFlushed = true
	t.Stats.EarlyFlushes++
	t.core.EarlyFlush(rec, taken, target)
}

func (t *TEA) lateEvent() {
	t.Stats.LateEvents++
	t.lateCount++
	if t.lateCount > t.Cfg.LateLimit && t.active {
		t.Stats.TermLate++
		t.terminate(false)
	}
}

// terminate stops fetching and drains the thread (§IV-G). blockFlushes
// suppresses further early flushes from in-flight TEA branches (the RAT-
// poisoning path).
func (t *TEA) terminate(blockFlushes bool) {
	if !t.active && !t.draining {
		return
	}
	t.active = false
	t.blockFlushes = t.blockFlushes || blockFlushes
	for _, u := range t.frontQ[t.frontHead:] {
		t.core.RecycleCompanionUop(u) // never inserted: last reference
	}
	t.frontQ, t.frontHead = t.frontQ[:0], 0
	t.curSeg.valid = false
	// Waiting (un-issued) uops may depend on registers that will never be
	// written; drop them now so the drain is bounded by execution latency.
	t.core.SquashCompanionWaiting()
	if t.outstanding == 0 {
		t.finishDrain()
	} else {
		t.draining = true
	}
}

func (t *TEA) finishDrain() {
	// outstanding == 0 means every in-flight uop has been released
	// (CompDone): the list holds the last references, recycle them.
	for _, u := range t.inflight {
		t.core.RecycleCompanionUop(u)
	}
	t.inflight = t.inflight[:0]
	t.draining = false
	t.blockFlushes = false
	t.lateCount = 0
	t.resetPRState()
	t.Store.Reset()
	t.core.SetPartition(false, 0, 0)
}

// Active reports whether the TEA thread is currently fetching.
func (t *TEA) Active() bool { return t.active }

// Quiescent implements the pipeline's idle-skip contract: it reports
// whether Tick would mutate nothing but the per-cycle counter OnSkip
// replays, and the earliest self-scheduled wake (the walk deadline and the
// frontend-latency deadline; every other transition is driven by
// retire/flush/completion events that end the idle window on their own).
//
// Inactive thread: idle unless a finished walk can commit, a drain can
// finish, the main thread overtook an armed cursor, or an armed thread is
// past its backoff with an activation attempt that could mutate state (a
// Block Cache hit check). The per-cycle bookkeeping is InactiveCycles.
//
// Active thread: idle only when both halves of Tick are provably no-ops.
// The fetch side must be wedged — the shadow cursor at the lead-block
// limit (freed when main-thread fetch consumes a block: a progress cycle)
// or caught up with the branch predictor (a new block is a progress
// cycle). The rename side must see an empty pipe, a head still in the
// FrontLatency window (a wake), a full companion RS partition (freed by
// issue or squash, both wake-covered), or an empty TEA PR free list (freed
// by completion/retire events). The PR-stall case is the one active
// per-cycle counter: Tick would count PRStallCycles each cycle, so
// Quiescent flags it for OnSkip to batch-replay. IssueSlotsLeft is
// deliberately NOT consulted: the core resets the slot budget immediately
// before comp.Tick, so the companion always sees a full budget.
func (t *TEA) Quiescent(now uint64) (bool, uint64) {
	t.skipPRStall = false
	if t.draining && t.outstanding == 0 {
		return false, 0 // finishDrain fires on the next tick
	}
	if (t.armed || t.active) && t.core.TEACursorInvalid() {
		return false, 0 // the next tick clears the arm / terminates
	}
	var wake uint64
	if t.walking {
		if now >= t.walkDoneAt {
			return false, 0 // commitWalk fires on the next tick
		}
		wake = t.walkDoneAt
	}
	if !t.active {
		if t.armed && !t.draining && t.retired >= t.backoffUntil {
			// tryActivate runs each tick. Its two early-outs are pure
			// reads whose answers only flip on wake-covered events (a
			// walk commit publishes BC.Updates; a predict cycle produces
			// the peeked block); past those it can mutate state.
			if t.BC.Updates != 0 && t.core.TEANextBlockPeek() != nil {
				return false, 0
			}
		}
		return true, wake
	}
	// Active thread, fetch side: fetchChainUops must hit an early-out.
	if t.core.TEALeadBlocks() < t.Cfg.MaxLeadBlocks {
		if blk, _ := t.core.TEACursor(); blk != nil {
			return false, 0 // a lookup, fetch, or block advance would run
		}
	}
	// Active thread, rename side: the pipe head must be stably blocked.
	if t.frontHead < len(t.frontQ) {
		u := t.frontQ[t.frontHead]
		if at := u.FetchCycle + t.Cfg.FrontLatency; at > now {
			if wake == 0 || at < wake {
				wake = at
			}
		} else if t.core.CompanionRSFree() == 0 {
			// RS partition full: freed only by issue/squash (wake-covered).
		} else if u.In.HasDest() && u.In.Rd != isa.R0 && len(t.prFree) == 0 {
			t.skipPRStall = true // Tick counts PRStallCycles each cycle
		} else {
			return false, 0 // the head would rename
		}
	}
	return true, wake
}

// OnSkip batch-applies the per-cycle bookkeeping the skipped Ticks would
// have done: InactiveCycles while the thread is parked, PRStallCycles when
// an active thread's pipe head is wedged on the TEA register pool.
func (t *TEA) OnSkip(n uint64) {
	if t.active {
		if t.skipPRStall {
			t.Stats.PRStallCycles += n
		}
		return
	}
	t.Stats.InactiveCycles += n
}
