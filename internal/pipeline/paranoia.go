package pipeline

// Paranoia mode: a per-cycle structural invariant checker (Config.Paranoia).
//
// The simulator's hot paths earn their speed from redundant bookkeeping —
// occupancy counters beside the queues they summarize, an occupancy bitmap
// beside the completion ring, per-register waiter lists beside the PRF
// scoreboard, lazy compaction with stamp-guarded stale references. Each pair
// must agree every cycle; a divergence silently corrupts timing long before
// it corrupts results. The checker re-derives every summary from the ground
// truth each cycle and panics at the first mismatch, so a corruption is
// caught at the cycle it happens with the machine state intact, not a
// billion cycles later as a wedge or a subtly wrong IPC.
//
// The checker only reads: a paranoid run retires the same instructions in
// the same cycles as a plain one (the paranoia suite test pins this). It
// costs roughly an order of magnitude in wall clock, so it is opt-in —
// wired into CI on a reduced budget (`make paranoia`) and available from
// the CLIs as -paranoia.
//
// Violations panic rather than return errors: the experiment engine
// captures panics with their stacks (PanicError), so a violation in a long
// suite degrades to a quarantined cell with a repro bundle instead of lost
// work, and the stack names the exact invariant.

import (
	"fmt"

	"teasim/internal/isa"
)

// paranoiaRingPeriod spaces the O(ring) completion-ring sweep; the cheap
// bitmap-vs-counter check still runs every cycle.
const paranoiaRingPeriod = 4096

// paranoiac panics with a cycle-stamped invariant violation.
func (c *Core) paranoiac(format string, args ...any) {
	panic(fmt.Sprintf("paranoia: cycle %d: %s", c.Cycle, fmt.Sprintf(format, args...)))
}

// checkInvariants validates the core's cross-structure invariants. Called at
// the end of every Tick when Cfg.Paranoia is set (stages are quiescent: no
// structure is mid-update at the tick boundary).
func (c *Core) checkInvariants() {
	c.checkROB()
	c.checkPRF()
	c.checkScheduler()
	c.checkCompletions()
	c.checkFrontend()
}

// checkROB: the reorder buffer is age-ordered with no squashed or pooled
// entries, and the load/store occupancy counters match a ground-truth count.
func (c *Core) checkROB() {
	loads, stores := 0, 0
	var prevSeq uint64
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if u.pooled {
			c.paranoiac("ROB[%d] (seq %d) is pooled", i, u.Seq)
		}
		if u.Squashed {
			c.paranoiac("ROB[%d] (seq %d) is squashed", i, u.Seq)
		}
		if i > 0 && u.Seq <= prevSeq {
			c.paranoiac("ROB age order broken: [%d].Seq=%d after %d", i, u.Seq, prevSeq)
		}
		prevSeq = u.Seq
		if u.isLoad() {
			loads++
		}
		if u.isStore() {
			stores++
		}
	}
	if loads != c.lqCount {
		c.paranoiac("lqCount=%d but ROB holds %d loads", c.lqCount, loads)
	}
	if stores != c.sqCount {
		c.paranoiac("sqCount=%d but ROB holds %d stores", c.sqCount, stores)
	}
	if c.sq.len() != c.sqCount {
		c.paranoiac("store queue holds %d entries, sqCount=%d", c.sq.len(), c.sqCount)
	}
	prevSeq = 0
	for i := 0; i < c.sq.len(); i++ {
		u := c.sq.at(i)
		if !u.isStore() {
			c.paranoiac("SQ[%d] (seq %d) is not a store", i, u.Seq)
		}
		if i > 0 && u.Seq <= prevSeq {
			c.paranoiac("SQ age order broken: [%d].Seq=%d after %d", i, u.Seq, prevSeq)
		}
		prevSeq = u.Seq
	}
}

// Register states for checkPRF's scratch classification.
const (
	regUnseen uint8 = iota
	regFree
	regRAT
	regROBDest
)

// checkPRF: physical-register conservation. Main-pool registers are
// partitioned between the free list and the allocated set, the allocated
// set is exactly the architectural mapping plus one register per in-flight
// destination-writing ROB entry, and no register is in two places at once.
func (c *Core) checkPRF() {
	p := c.PRF
	if c.paranoiaReg == nil {
		c.paranoiaReg = make([]uint8, len(p.Val))
	}
	st := c.paranoiaReg
	clear(st)

	if p.inUse+len(p.free) != p.poolLen {
		c.paranoiac("PRF leak: inUse=%d + free=%d != pool=%d", p.inUse, len(p.free), p.poolLen)
	}
	for _, r := range p.free {
		if int(r) >= p.poolLen {
			c.paranoiac("free list holds companion register p%d (pool=%d)", r, p.poolLen)
		}
		if st[r] == regFree {
			c.paranoiac("register p%d is on the free list twice", r)
		}
		st[r] = regFree
	}
	for a, r := range c.rat {
		switch st[r] {
		case regFree:
			c.paranoiac("RAT[r%d] maps to freed register p%d", a, r)
		case regRAT:
			c.paranoiac("RAT aliases: r%d maps to p%d, already mapped", a, r)
		}
		st[r] = regRAT
	}
	dests := 0
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if !u.HasDest {
			continue
		}
		dests++
		if int(u.Prd) >= p.poolLen {
			c.paranoiac("ROB seq %d destination p%d is outside the main pool", u.Seq, u.Prd)
		}
		if st[u.Prd] == regFree {
			c.paranoiac("ROB seq %d destination p%d is on the free list", u.Seq, u.Prd)
		}
		if st[u.Prd] == regROBDest {
			c.paranoiac("register p%d is the destination of two in-flight uops", u.Prd)
		}
		// The newest in-flight writer of an arch register is also its RAT
		// mapping, so regRAT here is expected; only double-Prd is a fault.
		if st[u.Prd] != regRAT {
			st[u.Prd] = regROBDest
		}
		if st[u.PrevPrd] == regFree {
			c.paranoiac("ROB seq %d holds freed previous mapping p%d", u.Seq, u.PrevPrd)
		}
	}
	if p.inUse != isa.NumRegs+dests {
		c.paranoiac("PRF conservation: inUse=%d, want %d arch + %d ROB dests",
			p.inUse, isa.NumRegs, dests)
	}
}

// checkScheduler: the wakeup/select bookkeeping. The occupancy counters
// match a ground-truth count of live entries (re-derived from the rs list).
// Every live RS entry owns exactly one slot whose cached fields match the
// uop, the free bitmap agrees with slot occupancy, every live entry is
// registered in exactly one wakeup home (a ready list, a parked list or one
// register's waiter list), the waiter lists link exactly the slots marked
// waiting, no waiter sits on a ready register, the sorted prefixes of the
// ready lists are in packed (age) order, each ready list holds only its own
// thread's entries, main-thread entries on readyList have both sources
// ready (the monotonicity claim select's fast path relies on), and the
// companion age list links exactly the live companion entries, in fetch
// order, with consistent back-links.
func (c *Core) checkScheduler() {
	if c.paranoiaCnt == nil {
		c.paranoiaCnt = make(map[*Uop]int)
	}
	cnt := c.paranoiaCnt
	clear(cnt)

	liveMain, liveTEA := 0, 0
	for i, u := range c.rs {
		if u.rsStamp != c.rsStamps[i] || !u.InRS {
			continue
		}
		if u.TEA {
			liveTEA++
		} else {
			liveMain++
		}
		cnt[u] = 0
	}
	if liveMain != c.rsMainCount || liveTEA != c.rsTEACount {
		c.paranoiac("RS occupancy: counted %d main + %d TEA live, counters say %d + %d",
			liveMain, liveTEA, c.rsMainCount, c.rsTEACount)
	}

	live := liveMain + liveTEA
	occupied, waiting := 0, 0
	for i := range c.slots {
		s := &c.slots[i]
		freeBit := c.slotFree[i>>6]>>(uint(i)&63)&1 != 0
		if s.stamp == 0 {
			if !freeBit {
				c.paranoiac("slot %d is empty but marked allocated in the free bitmap", i)
			}
			if s.waiting {
				c.paranoiac("free slot %d is still marked waiting", i)
			}
			continue
		}
		occupied++
		if s.waiting {
			waiting++
		}
		if freeBit {
			c.paranoiac("slot %d is occupied (stamp %d) but marked free in the bitmap", i, s.stamp)
		}
		u := s.u
		if u == nil {
			c.paranoiac("slot %d has stamp %d but no uop", i, s.stamp)
		}
		if _, ok := cnt[u]; !ok {
			c.paranoiac("slot %d holds seq %d, which is not live in the RS list", i, u.Seq)
		}
		if int(u.rsSlot) != i || u.rsStamp != s.stamp {
			c.paranoiac("slot %d disagrees with its uop: slot stamp %d, uop slot %d stamp %d",
				i, s.stamp, u.rsSlot, u.rsStamp)
		}
		if s.prs1 != u.Prs1 || s.prs2 != u.Prs2 || s.tea != u.TEA {
			c.paranoiac("slot %d cached operands/kind diverged from seq %d", i, u.Seq)
		}
	}
	if occupied != live {
		c.paranoiac("slot array holds %d residencies for %d live RS entries", occupied, live)
	}

	refLive := func(ref uint64) *schedSlot {
		s := &c.slots[ref&slotMask]
		if s.stamp != ref>>slotBits {
			return nil
		}
		return s
	}
	refs := 0
	if c.readySorted > len(c.readyList) {
		c.paranoiac("readySorted=%d exceeds readyList length %d", c.readySorted, len(c.readyList))
	}
	for i, ref := range c.readyList {
		if i > 0 && i < c.readySorted && ref < c.readyList[i-1] {
			c.paranoiac("readyList sorted prefix broken at %d (%d after %d)",
				i, ref, c.readyList[i-1])
		}
		s := refLive(ref)
		if s == nil {
			continue
		}
		refs++
		cnt[s.u]++
		if s.tea {
			c.paranoiac("companion seq %d in the main readyList", s.u.Seq)
		}
		if !c.PRF.Ready[s.prs1] || !c.PRF.Ready[s.prs2] {
			c.paranoiac("main seq %d in readyList with unready source (monotonicity violated)",
				s.u.Seq)
		}
	}
	if c.teaReadySorted > len(c.teaReadyList) {
		c.paranoiac("teaReadySorted=%d exceeds teaReadyList length %d",
			c.teaReadySorted, len(c.teaReadyList))
	}
	for i, ref := range c.teaReadyList {
		if i > 0 && i < c.teaReadySorted && ref < c.teaReadyList[i-1] {
			c.paranoiac("teaReadyList sorted prefix broken at %d (%d after %d)",
				i, ref, c.teaReadyList[i-1])
		}
		s := refLive(ref)
		if s == nil {
			continue
		}
		if !s.tea {
			c.paranoiac("main seq %d in the companion ready list", s.u.Seq)
		}
		refs++
		cnt[s.u]++
	}
	for _, ref := range c.sqParked {
		s := refLive(ref)
		if s == nil {
			continue
		}
		if !s.load || !s.u.sqBlocked {
			c.paranoiac("seq %d parked without a memoized SQ-blocked verdict", s.u.Seq)
		}
		if !c.PRF.Ready[s.prs1] || !c.PRF.Ready[s.prs2] {
			c.paranoiac("parked seq %d has an unready source (monotonicity violated)", s.u.Seq)
		}
		refs++
		cnt[s.u]++
	}
	for _, ref := range c.memParked {
		s := refLive(ref)
		if s == nil {
			continue
		}
		if !s.load || s.u.memWake == 0 {
			c.paranoiac("seq %d parked without a memoized MSHR-full verdict", s.u.Seq)
		}
		if c.memParkedWake == 0 || c.memParkedWake > s.u.memWake {
			c.paranoiac("parked seq %d wakes at %d but the pool wake is %d (lost wakeup)",
				s.u.Seq, s.u.memWake, c.memParkedWake)
		}
		if !c.PRF.Ready[s.prs1] || !c.PRF.Ready[s.prs2] {
			c.paranoiac("parked seq %d has an unready source (monotonicity violated)", s.u.Seq)
		}
		refs++
		cnt[s.u]++
	}
	linked := 0
	for preg, head := range c.wHead {
		for slot := head; slot != noSlot; slot = c.slots[slot].wnext {
			s := &c.slots[slot]
			if linked++; linked > waiting {
				c.paranoiac("waiter lists link %d slots, only %d are waiting (cycle or stray link)",
					linked, waiting)
			}
			if !s.waiting || int(s.wreg) != preg {
				c.paranoiac("slot %d on p%d's waiter list has waiting=%v wreg=p%d",
					slot, preg, s.waiting, s.wreg)
			}
			if s.stamp == 0 {
				c.paranoiac("waiter list of p%d links freed slot %d", preg, slot)
			}
			if c.PRF.Ready[preg] {
				c.paranoiac("live seq %d waits on p%d, which is already ready (lost wakeup)",
					s.u.Seq, preg)
			}
			refs++
			cnt[s.u]++
		}
	}
	if linked != waiting {
		c.paranoiac("waiter lists link %d slots, %d are marked waiting", linked, waiting)
	}
	if refs != live {
		c.paranoiac("wakeup registration: %d live refs for %d live RS entries", refs, live)
	}
	for u, n := range cnt {
		if n != 1 {
			c.paranoiac("seq %d registered %d times across ready lists+parked+waiter lists, want exactly 1",
				u.Seq, n)
		}
	}

	teaLive := 0
	var prevFetch uint64
	prev := int32(noSlot)
	for slot := c.ageHead; slot != noSlot; slot = c.slots[slot].anext {
		s := &c.slots[slot]
		if teaLive++; teaLive > occupied {
			c.paranoiac("companion age list links more slots than the %d occupied (cycle)", occupied)
		}
		if s.stamp == 0 || !s.tea || s.aprev != prev {
			c.paranoiac("age list slot %d: stamp %d, tea=%v, aprev %d (want live, companion, %d)",
				slot, s.stamp, s.tea, s.aprev, prev)
		}
		if s.u.FetchCycle < prevFetch {
			c.paranoiac("companion age list out of order: seq %d fetched at %d after %d",
				s.u.Seq, s.u.FetchCycle, prevFetch)
		}
		prevFetch = s.u.FetchCycle
		prev = slot
	}
	if c.ageTail != prev {
		c.paranoiac("companion age list tail is slot %d, its last link is %d", c.ageTail, prev)
	}
	if teaLive != c.rsTEACount {
		c.paranoiac("companion age list covers %d live entries, rsTEACount=%d",
			teaLive, c.rsTEACount)
	}
}

// checkCompletions: the occupancy bitmap mirrors the intrusive completion
// ring. The cheap every-cycle check is that an empty ring has an empty
// bitmap; a periodic sweep walks the whole ring through the complNext links
// and re-verifies slot filing and the bitmap in full.
func (c *Core) checkCompletions() {
	if c.completionsPending == 0 {
		for w, word := range c.complMask {
			if word != 0 {
				c.paranoiac("completion bitmap word %d nonzero with nothing pending", w)
			}
		}
	}
	if c.Cycle%paranoiaRingPeriod != 0 {
		return
	}
	inRing := 0
	for slot := range c.complHead {
		occupied := c.complHead[slot] != nil
		if bit := c.complMask[slot>>6]>>(uint(slot)&63)&1 != 0; bit != occupied {
			c.paranoiac("completion bitmap bit for slot %d is %v, ring occupancy is %v",
				slot, bit, occupied)
		}
		for u := c.complHead[slot]; u != nil; u = u.complNext {
			inRing++
			if u.DoneAt < c.Cycle {
				c.paranoiac("ring slot %d holds seq %d due at %d, already past", slot, u.Seq, u.DoneAt)
			}
			if int(u.DoneAt%completionRing) != slot {
				c.paranoiac("seq %d due at %d filed in ring slot %d", u.Seq, u.DoneAt, slot)
			}
		}
	}
	if inRing != c.completionsPending {
		c.paranoiac("ring holds %d uops, counter says %d", inRing, c.completionsPending)
	}
}

// checkFrontend: the in-order frontend streams stay age-ordered — branch
// records, fetched blocks, and the rename pipe.
func (c *Core) checkFrontend() {
	var prevSeq uint64
	for i := 0; i < c.recList.len(); i++ {
		r := c.recList.at(i)
		if i > 0 && r.Seq <= prevSeq {
			c.paranoiac("branch record list out of order: [%d].Seq=%d after %d", i, r.Seq, prevSeq)
		}
		prevSeq = r.Seq
	}
	var prevBase uint64
	for i := 0; i < c.fetchQ.len(); i++ {
		b := c.fetchQ.at(i)
		if i > 0 && b.SeqBase < prevBase {
			c.paranoiac("fetch queue out of order: [%d].SeqBase=%d after %d", i, b.SeqBase, prevBase)
		}
		prevBase = b.SeqBase
	}
	prevSeq = 0
	for i := 0; i < c.frontQ.len(); i++ {
		u := c.frontQ.at(i)
		if i > 0 && u.Seq <= prevSeq {
			c.paranoiac("frontend pipe out of order: [%d].Seq=%d after %d", i, u.Seq, prevSeq)
		}
		prevSeq = u.Seq
	}
}
