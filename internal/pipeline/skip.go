package pipeline

import (
	"teasim/internal/emu"
	"teasim/internal/isa"
)

// Idle-cycle fast-forward (event-driven skipping).
//
// Memory-bound phases leave the core ticking dead cycles: the ROB head
// waits on a DRAM load, the frontend pipe is full, nothing completes.
// Simulating those cycles one at a time is pure overhead — nothing in the
// machine can change until a scheduled event arrives. idleWake proves a
// cycle dead and names the earliest cycle at which anything can change;
// skipTo jumps there, applying exactly the per-cycle bookkeeping the
// skipped ticks would have done. The invariant (enforced by the skip
// on/off equivalence test, documented in DESIGN.md §9): every stat counter
// and simulation outcome is bit-identical to a tick-by-tick run.
//
// The proof obligation for idleWake: if it returns (wake, true), then for
// every cycle t in [Cycle, wake) a Tick at t mutates nothing except Cycle,
// Stats.Cycles, and the per-cycle stall counters that skipTo replays.
// Each stage's guard depends on Cycle only through the enumerated wake
// sources, and every resource that could unblock a stage (ROB/RS/PRF/LSQ
// space, fetch-queue room) is freed only by retire/complete/flush events —
// all of which require a wake source to fire first.

// idleWake reports whether the machine is provably idle at the current
// cycle and, if so, the earliest future cycle at which any stage (or the
// companion, or the memory system) can wake. A false result means the next
// Tick may make progress and must run normally.
func (c *Core) idleWake() (wake uint64, idle bool) {
	// Retire: an executed ROB head retires (or at least probes the D-cache
	// on a store-commit MSHR retry — an access-count mutation either way).
	if c.rob.len() > 0 && c.rob.front().Executed {
		return 0, false
	}
	// Fetch: an unstalled frontend with pipe room and a queued block pops,
	// holds for the companion (teaPopWait++), or accesses the I-cache.
	stalled := c.Cycle < c.fetchStallTil
	if !stalled && c.Cfg.FrontQCap-c.frontQ.len() > 0 && c.fetchQ.len() > 0 {
		return 0, false
	}
	// Predict: an unstalled stream with fetch-queue room emits a block (or
	// discovers the end of the code segment, which also mutates state).
	if !c.streamStalled && c.Cycle >= c.streamResumeAt && c.fetchQ.len() < c.Cfg.FetchQueueSize {
		return 0, false
	}

	// closer keeps the earliest strictly-future wake candidate (0 = none).
	closer := func(at uint64) {
		if at > c.Cycle && (wake == 0 || at < wake) {
			wake = at
		}
	}
	if stalled {
		closer(c.fetchStallTil)
	}
	if !c.streamStalled && c.Cycle < c.streamResumeAt {
		closer(c.streamResumeAt)
	}
	// Rename: the in-order pipe head either renames now (progress), waits
	// out the frontend latency (a wake), or is blocked on a backend
	// resource only a retire/complete/flush event can free (idle).
	if c.frontQ.len() > 0 {
		u := c.frontQ.front()
		if at := u.FetchCycle + c.Cfg.FetchToRenameLat; at > c.Cycle {
			closer(at)
		} else if !c.renameBlocked(u) {
			return 0, false
		}
	}
	// Decode re-steers fire at their delivery cycle (a due one mutates the
	// pending list even when the branch was already squashed).
	for _, pr := range c.pendingRedirects {
		if pr.atCycle <= c.Cycle {
			return 0, false
		}
		closer(pr.atCycle)
	}
	// Execute: a ready RS entry issues — unless it is a load provably
	// blocked on an older store or on full MSHRs, whose unblocking event (a
	// completion, a retire, a fill arrival) is already a wake source. Every
	// ready entry is on a ready list (wakeup is event-driven, see sched.go),
	// so entries on waiter lists need no inspection: they wake only via a
	// writeback, which the completion bitmap below covers. Main readiness is
	// monotonic (see sched_bitset.go), so main entries need no re-check.
	for _, ref := range c.readyList {
		s := &c.slots[ref&slotMask]
		if s.stamp != ref>>slotBits {
			continue
		}
		if !c.loadBlocked(s.u) {
			return 0, false
		}
	}
	// A live companion entry with both sources ready would issue (or probe
	// the cache) next tick — loadBlocked never blocks companion uops — so it
	// vetoes idleness outright; unready ones wake via a writeback, covered
	// by the completion bitmap below.
	for _, ref := range c.teaReadyList {
		s := &c.slots[ref&slotMask]
		if s.stamp != ref>>slotBits {
			continue
		}
		if c.PRF.Ready[s.prs1] && c.PRF.Ready[s.prs2] {
			return 0, false
		}
	}
	// MSHR-parked loads are invisible to the walk above; their retry is
	// due exactly when the earliest parked memo expires. A due (or past)
	// pool wake vetoes idleness — select re-admits the pool on the next
	// tick — and a future one bounds the skip. (sqParked needs no
	// analogue: a parked SQ verdict can only flip via a completion,
	// retire, or flush event, all wake sources already.)
	if len(c.memParked) > 0 {
		if c.memParkedWake <= c.Cycle {
			return 0, false
		}
		closer(c.memParkedWake)
	}
	// Companion entries additionally age out on the companionRSTimeout
	// sweep; FetchCycle is nondecreasing along the age list, so its head
	// bounds them all.
	if at := c.companionTimeoutHorizon(); at != 0 {
		if at <= c.Cycle {
			return 0, false
		}
		closer(at)
	}
	// Companion: it declares its own quiescence and self-scheduled wake
	// (TEA Fill Buffer walk completion; Branch Runahead instance latency).
	compIdle, compWake := c.comp.Quiescent(c.Cycle)
	if !compIdle {
		return 0, false
	}
	closer(compWake)
	// Writeback: the earliest scheduled completion, read off the ring's
	// occupancy bitmap. A completion due at the current cycle drains on the
	// next tick (not idle).
	at, ok := c.complNextWake()
	if !ok {
		return 0, false
	}
	if at != 0 {
		closer(at)
	}
	// Memory system: a fill completing at cycle f can unblock an MSHR-full
	// load retry as early as cycle f-1 (issueLoad probes with now=Cycle+1),
	// so wake one cycle before the earliest outstanding fill. This also
	// defensively covers any other stage that polls the hierarchy.
	if at := c.Hier.NextEvent(c.Cycle); at != 0 {
		closer(at - 1)
	}

	if wake == 0 {
		return 0, false
	}
	return wake, true
}

// loadBlocked reports whether a ready RS entry would fail to issue — and
// mutate nothing but diagnostic cache hit/miss counters — if execute ran
// now. Only main-thread loads can be provably blocked: on an older store
// without an address (its completion is in the ring), on a partial store
// overlap (cleared by that store's commit, behind retire-side wakes), or
// on full MSHRs (cleared by a fill completion, a Hierarchy.NextEvent
// wake). It replicates issueLoad's disambiguation scan read-only; the
// answer cannot change before one of those wake events fires. Everything
// else — any non-load, any companion load — issues or probes the D-cache,
// so it reports not blocked and the cycle is not idle.
func (c *Core) loadBlocked(u *Uop) bool {
	if u.Cls != isa.ClassLoad || u.TEA {
		return false
	}
	if u.sqBlocked && u.sqEpoch == c.storeEpoch {
		return true // memoized SQ-blocked verdict, inputs unchanged
	}
	if u.memWake > c.Cycle {
		return true // memoized MSHR-full verdict, no fill has completed yet
	}
	addr := emu.EffAddr(u.In, c.PRF.Val[u.Prs1])
	size := u.In.MemBytes()
	for i := c.sq.len() - 1; i >= 0; i-- {
		s := c.sq.at(i)
		if s.Squashed || s.Seq >= u.Seq {
			continue
		}
		if !s.Executed {
			return true // older store address unknown
		}
		ssz := s.In.MemBytes()
		if s.Addr+uint64(ssz) <= addr || addr+uint64(size) <= s.Addr {
			continue // disjoint
		}
		if s.Addr <= addr && addr+uint64(size) <= s.Addr+uint64(ssz) {
			return false // would forward from the containing store
		}
		return true // partial overlap: waits for the store to commit
	}
	return !c.Hier.LoadWouldAccept(addr, c.Cycle+1)
}

// renameBlocked replicates rename()'s resource gates for a latency-ready
// head uop. All of them are freed only by retire/complete/flush events, so
// a blocked head is idle-compatible.
func (c *Core) renameBlocked(u *Uop) bool {
	if c.rob.len() >= c.Cfg.ROBSize || c.rsMainCount >= c.mainRSCap {
		return true
	}
	if u.destValid && !c.PRF.CanAlloc() {
		return true
	}
	if u.isLoad() && c.lqCount >= c.Cfg.LQSize {
		return true
	}
	if u.isStore() && c.sqCount >= c.Cfg.SQSize {
		return true
	}
	return false
}

// skipTo fast-forwards the idle machine from the current cycle to target,
// batch-applying the per-cycle stall accounting that each of the skipped
// Ticks would have performed (idleWake guarantees they would do nothing
// else). The conditions mirror retire() and fetch() exactly: a non-empty
// ROB whose head is unexecuted counts a retire stall; a stalled frontend
// counts an I-miss stall regardless of queue state; otherwise an empty
// fetch queue with pipe room counts an empty-fetch-queue cycle.
func (c *Core) skipTo(target uint64) {
	n := target - c.Cycle
	if c.rob.len() > 0 {
		c.Stats.RetireStallROB += n
	}
	if c.Cycle < c.fetchStallTil {
		c.Stats.FetchStallICM += n
	} else if c.Cfg.FrontQCap-c.frontQ.len() > 0 && c.fetchQ.len() == 0 {
		c.Stats.EmptyFetchQ += n
	}
	c.comp.OnSkip(n)
	c.IdleSkips++
	c.IdleCyclesSkipped += n
	c.Cycle = target
	c.Stats.Cycles = target
}
