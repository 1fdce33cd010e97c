package pipeline

import (
	"slices"

	"teasim/internal/emu"
	"teasim/internal/isa"
)

// completionRing bounds how far in the future a uop may complete. DRAM
// backlogs stay well under this; exceeding it is a simulator bug.
const completionRing = 16384

// companionRSTimeout sweeps companion uops that have been waiting in the
// reservation stations implausibly long (their producer was lost to a flush).
const companionRSTimeout = 1024

// execute is the select/dispatch stage: it binds ready uops to execution
// ports (TEA-priority, then oldest first), reads operand values, computes
// results, and schedules writeback. Candidates come from the event-driven
// ready lists (see sched.go), one per thread, each in insertion order, so
// port binding matches a full scan of the RS.
func (c *Core) execute() {
	aluFree := c.Cfg.ALUPorts
	fpFree := c.Cfg.FPPorts
	memFree := c.Cfg.LDPorts + c.Cfg.LDSTPorts // load-capable slots
	stFree := c.Cfg.LDSTPorts                  // store-capable slots

	// Companion uops can wait on a register whose producer vanished in a
	// flush (the shadow RAT is only a snapshot); sweep them out instead of
	// letting them pin RS entries forever.
	c.sweepCompanionTimeouts()
	cands := c.selectCands()
	var teaCands []*Uop
	if c.rsTEACount > 0 {
		teaCands = c.selectTEACands()
	} else if len(c.teaReadyList) > 0 {
		// No live companion residencies ⇒ every queued ref is stale;
		// drop them wholesale instead of compacting one by one.
		c.teaReadyList = c.teaReadyList[:0]
		c.teaReadySorted = 0
	}

	if c.Cfg.Companion.Dedicated {
		// Dedicated engine: companion uops draw from their own execution
		// slots (any class); loads still contend for cache ports/MSHRs via
		// the shared hierarchy state.
		teaFree := c.Cfg.Companion.Ports
		for _, u := range teaCands {
			if teaFree == 0 {
				break
			}
			before := teaFree
			teaFree--
			// Reuse the class-checked path with generous per-class budgets.
			a, f, m, st := 1, 1, 1, 1
			c.tryIssue(u, &a, &f, &m, &st)
			if a == 1 && f == 1 && m == 1 && st == 1 {
				teaFree = before // did not issue (e.g. load retry)
			}
		}
		teaCands = nil
	}
	// Shared ports: companion candidates (none left with a dedicated
	// engine) go first unless demoted below the main thread.
	first, second := teaCands, cands
	if c.Cfg.Companion.NoPriority {
		first, second = cands, teaCands
	}
	for _, u := range first {
		if aluFree == 0 && fpFree == 0 && memFree == 0 {
			return // every class is port-blocked; the rest are no-ops
		}
		c.tryIssue(u, &aluFree, &fpFree, &memFree, &stFree)
	}
	for _, u := range second {
		if aluFree == 0 && fpFree == 0 && memFree == 0 {
			return
		}
		c.tryIssue(u, &aluFree, &fpFree, &memFree, &stFree)
	}
}

// tryIssue binds one candidate to a port if its class has one free.
func (c *Core) tryIssue(u *Uop, aluFree, fpFree, memFree, stFree *int) {
	switch u.Cls {
	case isa.ClassNop, isa.ClassHalt, isa.ClassALU, isa.ClassMul,
		isa.ClassDiv, isa.ClassBranch, isa.ClassJump:
		if *aluFree == 0 {
			return
		}
		*aluFree--
		c.issueALU(u)
	case isa.ClassFP:
		if *fpFree == 0 {
			return
		}
		*fpFree--
		c.issueALU(u)
	case isa.ClassLoad:
		if *memFree == 0 {
			return
		}
		if !c.issueLoad(u) {
			return // not issuable yet (store dependence / MSHR full)
		}
		*memFree--
	case isa.ClassStore:
		if *stFree == 0 || *memFree == 0 {
			return
		}
		*stFree--
		*memFree--
		c.issueStore(u)
	}
}

func (c *Core) latencyOf(u *Uop) uint64 {
	switch u.Cls {
	case isa.ClassMul:
		return c.Cfg.MulLat
	case isa.ClassDiv:
		return c.Cfg.DivLat
	case isa.ClassFP:
		if u.In.Op == isa.OpFDiv {
			return c.Cfg.FDivLat
		}
		return c.Cfg.FPLat
	default:
		return c.Cfg.ALULat
	}
}

// issueALU handles every non-memory class (including branches and nops).
func (c *Core) issueALU(u *Uop) {
	v1, v2 := c.PRF.Val[u.Prs1], c.PRF.Val[u.Prs2]
	if u.isBranch() {
		u.Taken, u.Target = emu.BranchOutcome(u.In, v1, v2)
	}
	if val, ok := emu.Eval(u.In, v1, v2, u.PC); ok {
		u.Val = val
	}
	c.scheduleDone(u, c.Cycle+c.latencyOf(u))
}

// issueLoad executes a load: effective address, store-queue disambiguation
// (main thread only — TEA loads bypass the LSQ and consult the TEA store
// data cache), then the D-cache. Returns false if the load must retry.
func (c *Core) issueLoad(u *Uop) bool {
	if !u.TEA && u.sqBlocked && u.sqEpoch == c.storeEpoch {
		return false // memoized disambiguation verdict still valid
	}
	addr := emu.EffAddr(u.In, c.PRF.Val[u.Prs1])
	size := u.In.MemBytes()
	u.Addr = addr

	if u.TEA {
		if c.comp.OlderStorePending(u.Seq) {
			return false // wait for the chain's producing store
		}
		if v, ok := c.comp.LoadValue(addr, size); ok {
			u.Val = v
			c.scheduleDone(u, c.Cycle+2) // TEA store-cache forward
			return true
		}
		res, ok := c.Hier.Load(addr, c.Cycle+1)
		if !ok {
			return false
		}
		u.Val = c.Mem.Read(addr, size)
		c.scheduleDone(u, res.ReadyAt)
		return true
	}

	// Conservative ordering: wait until every older store in the SQ has its
	// address; forward from the youngest containing store. A "blocked"
	// verdict is memoized against the SQ epoch: until a store executes,
	// commits, or the SQ population changes, the rescan would reach the
	// same verdict, so the per-cycle retry skips it (the probes that DO
	// have side effects — forwards and cache accesses — are never cached).
	var fwd *Uop
	for i := c.sq.len() - 1; i >= 0; i-- {
		s := c.sq.at(i)
		if s.Squashed || s.Seq >= u.Seq {
			continue
		}
		if !s.Executed {
			u.sqEpoch, u.sqBlocked = c.storeEpoch, true
			return false // older store address unknown; retry
		}
		ssz := s.In.MemBytes()
		if s.Addr+uint64(ssz) <= addr || addr+uint64(size) <= s.Addr {
			continue // disjoint
		}
		if s.Addr <= addr && addr+uint64(size) <= s.Addr+uint64(ssz) {
			fwd = s
			break // youngest containing store wins
		}
		u.sqEpoch, u.sqBlocked = c.storeEpoch, true
		return false // partial overlap: wait until the store commits
	}
	if fwd != nil {
		shift := (addr - fwd.Addr) * 8
		v := fwd.StoreData >> shift
		if size < 8 {
			v &= (1 << (8 * uint(size))) - 1
		}
		u.Val = v
		c.Stats.StoreForwards++
		c.scheduleDone(u, c.Cycle+2)
		return true
	}
	res, ok := c.Hier.Load(addr, c.Cycle+1)
	if !ok {
		// MSHRs full. Memoize the earliest retry cycle that could succeed:
		// the probe stays rejected until an outstanding L1D or LLC fill
		// completes (a probe at cycle F sees the F-completing fill's MSHR as
		// free, so the retry tick is F-1). The wake is conservative — the
		// earliest fill may free the wrong level — but an early retry just
		// re-parks; see selectCandsBitset.
		f := c.Hier.L1D.NextFill(c.Cycle + 1)
		if l := c.Hier.LLC.NextFill(c.Cycle + 1); l != 0 && (f == 0 || l < f) {
			f = l
		}
		if f != 0 {
			u.memWake = f - 1
		}
		return false
	}
	u.Val = c.Mem.Read(addr, size)
	c.Stats.LoadsExecuted++
	c.scheduleDone(u, res.ReadyAt)
	return true
}

// issueStore computes a store's address and data into its SQ entry; the
// cache write happens at retirement. TEA stores go to the store data cache.
func (c *Core) issueStore(u *Uop) {
	u.Addr = emu.EffAddr(u.In, c.PRF.Val[u.Prs1])
	u.StoreData = c.PRF.Val[u.Prs2]
	c.scheduleDone(u, c.Cycle+1)
}

func (c *Core) scheduleDone(u *Uop, at uint64) {
	u.Issued = true
	u.DoneAt = at
	u.InRS = false
	if u.TEA {
		c.rsTEACount--
		c.Stats.CompanionUops++
	} else {
		c.rsMainCount--
		c.Stats.ExecutedUops++
	}
	if at-c.Cycle >= completionRing {
		panic("pipeline: completion beyond ring horizon")
	}
	slot := at % completionRing
	u.complNext = c.complHead[slot]
	c.complHead[slot] = u
	c.completionsPending++
	c.freeSlot(u)
	c.complMask[slot>>6] |= 1 << uint(slot&63)
}

// complete is the writeback stage: results become architecturally visible
// to the scheduler, branches resolve (possibly flushing), and companion
// uops notify their owner. Oldest-first so the oldest misprediction wins.
func (c *Core) complete() {
	slot := c.Cycle % completionRing
	head := c.complHead[slot]
	if head == nil {
		return
	}
	c.complHead[slot] = nil
	list := c.complScratch[:0]
	for u := head; u != nil; u = u.complNext {
		list = append(list, u)
	}
	// The intrusive push prepends, so the walk yields newest-first; restore
	// scheduling (FIFO) order. Seq alone is NOT a total order here — a
	// companion uop shares its Seq with its main-thread twin — so the sort
	// below resolves ties by input position and must see the same input
	// order the slice-based ring produced.
	for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
		list[i], list[j] = list[j], list[i]
	}
	c.complScratch = list
	c.completionsPending -= len(list)
	c.complMask[slot>>6] &^= 1 << uint(slot&63)
	// Seqs are unique, so this unstable sort is deterministic; unlike
	// sort.Slice it does not allocate a closure + swapper per call. Most
	// cycles drain one or two uops: those sizes skip the sort machinery.
	// The len==2 compare-swap leaves ties (a TEA uop and its main twin
	// share a Seq) in input order, exactly what the comparator's
	// tie-returns-+1 convention makes the library's small-n insertion sort
	// do — do not "simplify" the big-n case to a stable sort, or tie order
	// (and bit-identity) changes for lists the library partitions.
	switch {
	case len(list) <= 1:
	case len(list) == 2:
		if list[0].Seq > list[1].Seq {
			list[0], list[1] = list[1], list[0]
		}
	default:
		slices.SortFunc(list, func(a, b *Uop) int {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		})
	}
	for _, u := range list {
		if u.Squashed {
			if u.TEA {
				c.comp.UopExecuted(u)
			} else {
				c.pool.putUop(u)
			}
			continue
		}
		u.Executed = true
		if u.Cls == isa.ClassStore && !u.TEA {
			c.storeEpoch++ // a store's address became known
		}
		if u.HasDest {
			c.PRF.Write(u.Prd, u.Val)
			c.wakeWaiters(u.Prd)
		}
		if u.TEA {
			if u.isStore() {
				c.comp.StoreExec(u.Addr, u.StoreData, u.In.MemBytes())
			}
			if u.isBranch() {
				c.comp.BranchResolved(u, u.Taken, u.Target)
			}
			c.comp.UopExecuted(u)
			continue
		}
		if u.isBranch() {
			c.resolveBranch(u)
		}
	}
}

// resolveBranch compares a main-thread branch's computed outcome against the
// (possibly TEA-corrected) fetch stream and flushes on mismatch.
func (c *Core) resolveBranch(u *Uop) {
	rec := u.Rec
	rec.Resolved = true
	rec.ActualTaken = u.Taken
	rec.ActualTarget = u.Target
	rec.ResolveCycle = c.Cycle
	rec.WasMispred = rec.actualNext() != rec.OrigNext

	if rec.Precomputed {
		wrong := rec.PreTaken != u.Taken || (u.Taken && rec.PreTarget != u.Target)
		if wrong {
			c.comp.PrecomputationWrong(rec.PC)
		}
	}
	if rec.actualNext() != rec.PredNext {
		c.Stats.Flushes++
		c.flushAfter(u.Seq, rec.actualNext(), rec, u.Taken, u.Target)
	}
}
