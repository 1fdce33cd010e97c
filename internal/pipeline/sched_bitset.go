package pipeline

import "math/bits"

// Bitset scheduler: the slot array and lists behind the event-driven
// wakeup/select machinery in sched.go.
//
// RS residencies live in fixed slots of a flat array. A free-slot bitmap
// allocated with bits.TrailingZeros64 replaces pointer-chasing list
// membership; every queued reference to a residency (ready and parked
// lists) is a packed 64-bit word (rsStamp<<16 | slot), so
//
//   - liveness is one load: slots[slot].stamp == ref>>16 — a freed or
//     recycled slot has a different (or zero) stamp;
//   - age order is numeric order: stamps are monotone, so sorting packed
//     refs ascending IS the RS-insertion-order sort select must preserve.
//     Waiter-list and bitmap iteration order never reach a result because
//     the final candidate order comes from this sort alone.
//
// The per-register waiter lists and the companion age list are instead
// threaded through the slots (schedSlot's links), and freeing a slot
// unlinks it, so they hold live residencies only and need no storage of
// their own: a warming-up core never grows them.
//
// Main-thread and companion residencies ready up onto separate lists
// (readyList, teaReadyList). Selection skips the per-cycle PRF.Ready
// revalidation for main-thread entries: main readiness is monotonic. A main
// uop's source register cannot be freed while the consumer sits in the RS —
// the next writer of that architectural register is younger (flushes squash
// consumers together with producers, and the previous mapping is freed only
// when the younger writer retires, which in-order retirement forbids before
// the older consumer leaves). Only companion (TEA) entries can observe a
// ready register go unready again — their producer can be squashed and the
// register recycled under them — so only they revalidate, migrating back to
// a waiter list. Paranoia mode re-asserts the monotonicity claim every cycle
// (checkScheduler).

// schedSlot is one RS residency in the bitset scheduler.
type schedSlot struct {
	u          *Uop
	stamp      uint64 // == u.rsStamp while the slot is live; 0 when free
	prs1, prs2 uint16
	// Intrusive lists, linked by slot index with noSlot as the terminator.
	// While waiting is set, the residency is on the waiter list of register
	// wreg (Core.wHead) through wnext. A companion residency is on the age
	// list (Core.ageHead/ageTail) through aprev/anext for as long as it is
	// live. Freeing a slot unlinks it from both, so neither list ever holds
	// a dead residency or needs a stamp guard.
	wreg         uint16
	tea          bool
	load         bool // main-thread load (parkable on an SQ-blocked verdict)
	waiting      bool
	wnext        int32
	aprev, anext int32
}

// noSlot terminates a slot list.
const noSlot = -1

// packed ready/parked reference layout.
const (
	slotBits = 16
	slotMask = 1<<slotBits - 1
	// maxSlots bounds the slot space so a packed ref's stamp and slot never
	// collide. Stamps get the remaining 48 bits: one insertion per simulated
	// cycle for ~89 years of 100GHz simulation — not a practical limit.
	maxSlots = 1 << slotBits
)

// initSched sets up the slot array and the per-register waiter-list heads
// (carve sizes them and the scheduler's lists). Slots cover the worst-case
// combined RS occupancy (main partition + a dedicated companion engine's
// reservation), rounded up to whole bitmap words; the array grows on demand
// if a configuration exceeds the estimate. Waiter lists are threaded
// through the slots themselves, so they need no storage of their own. Every
// list that holds packed refs is sized for the slot count: each live
// residency has exactly one wakeup home, so only a configuration past the
// estimate grows them.
func (c *Core) initSched(slots []schedSlot, wHead []int32) {
	c.slots = slots
	for i := range c.slotFree {
		c.slotFree[i] = ^uint64(0)
	}
	c.wHead = wHead
	for i := range c.wHead {
		c.wHead[i] = noSlot
	}
	c.ageHead, c.ageTail = noSlot, noSlot
}

// allocSlot takes the lowest free slot (pure simulator bookkeeping: slot
// numbers never influence scheduling decisions, so lowest-first is safe —
// unlike the PRF free list, whose LIFO order is architecturally observable;
// see DESIGN.md §12).
func (c *Core) allocSlot() int {
	for w, word := range c.slotFree {
		if word != 0 {
			b := bits.TrailingZeros64(word)
			c.slotFree[w] = word &^ (1 << uint(b))
			return w<<6 | b
		}
	}
	base := len(c.slots)
	if base+64 > maxSlots {
		panic("pipeline: bitset scheduler slot space exhausted")
	}
	c.slots = append(c.slots, make([]schedSlot, 64)...)
	c.slotFree = append(c.slotFree, ^uint64(0)&^1)
	return base
}

// freeSlot releases a residency's slot. Zeroing the stamp kills every packed
// reference still pointing at it.
func (c *Core) freeSlot(u *Uop) {
	s := u.rsSlot
	if sl := &c.slots[s]; sl.waiting || sl.tea {
		c.unlink(s)
	}
	c.slots[s] = schedSlot{}
	c.slotFree[s>>6] |= 1 << uint(s&63)
}

// unlink takes a residency off its waiter list and, for a companion one,
// off the age list. Waiter lists are singly linked, so waiting costs no
// write to another slot; the walk to the predecessor is paid only when a
// waiting residency is squashed, and a register rarely has many waiters.
func (c *Core) unlink(slot int32) {
	s := &c.slots[slot]
	if s.waiting {
		p := &c.wHead[s.wreg]
		for *p != slot {
			p = &c.slots[*p].wnext
		}
		*p = s.wnext
	}
	if s.tea {
		if s.aprev != noSlot {
			c.slots[s.aprev].anext = s.anext
		} else {
			c.ageHead = s.anext
		}
		if s.anext != noSlot {
			c.slots[s.anext].aprev = s.aprev
		} else {
			c.ageTail = s.aprev
		}
	}
}

// waitOn links slot into register p's waiter list. Lists are LIFO: order
// inside a list never reaches a result, because every ready list is
// stamp-sorted before select reads it.
func (c *Core) waitOn(p uint16, slot int32) {
	s := &c.slots[slot]
	s.waiting, s.wreg, s.wnext = true, p, c.wHead[p]
	c.wHead[p] = slot
}

// home registers a live residency that is on no list in its one wakeup
// home: the waiter list of its first unready source, else the ready list
// its thread selects from.
func (c *Core) home(slot int32) {
	s := &c.slots[slot]
	switch {
	case !c.PRF.Ready[s.prs1]:
		c.waitOn(s.prs1, slot)
	case !c.PRF.Ready[s.prs2]:
		c.waitOn(s.prs2, slot)
	case s.tea:
		c.teaReadyList = append(c.teaReadyList, s.stamp<<slotBits|uint64(slot))
	default:
		c.readyList = append(c.readyList, s.stamp<<slotBits|uint64(slot))
	}
}

// selectCands compacts the main ready list in place and returns this
// cycle's candidates in RS-insertion order. Main readiness is monotonic, so
// nothing here revalidates it (see above). The list stays sorted across
// cycles: survivors of the previously sorted prefix are
// already ordered, so only refs appended since the last select (wakeups,
// fresh inserts) take insertion-sort steps.
//
// Main loads with a memoized SQ-blocked verdict are parked on a side list
// instead of re-selected: issueLoad would fast-out on them without touching
// any state, so their absence from the candidate list is unobservable. The
// whole parked list returns to readyList the moment the store epoch moves
// (the memo key), and the stamp sort restores their age position. Within a
// tick, the only epoch bumps after select (a rename-stage store push, a
// decode-resteer flush) cannot unblock a surviving parked load: new stores
// are younger than it, and a flush old enough to remove its blocking store
// squashes the load itself.
func (c *Core) selectCands() []*Uop {
	if len(c.sqParked) > 0 && c.parkedEpoch != c.storeEpoch {
		c.readyList = append(c.readyList, c.sqParked...)
		c.sqParked = c.sqParked[:0]
	}
	if len(c.memParked) > 0 && c.Cycle >= c.memParkedWake {
		// The earliest parked wake is due: re-admit the whole list. Entries
		// with later wakes re-park below without probing anything.
		c.readyList = append(c.readyList, c.memParked...)
		c.memParked = c.memParked[:0]
		c.memParkedWake = 0
	}
	q := c.readyList[:0]
	cands := c.candScratch[:0]
	sorted := 0
	for i, ref := range c.readyList {
		s := &c.slots[ref&slotMask]
		if s.stamp != ref>>slotBits {
			continue
		}
		if s.load {
			u := s.u
			if u.sqBlocked && u.sqEpoch == c.storeEpoch {
				c.sqParked = append(c.sqParked, ref)
				c.parkedEpoch = c.storeEpoch
				continue
			}
			if u.memWake > c.Cycle {
				// Guaranteed-rejected MSHR retry (see issueLoad): tryIssue
				// would consume no port and mutate nothing, so dropping the
				// entry from the candidate list is unobservable.
				c.memParked = append(c.memParked, ref)
				if c.memParkedWake == 0 || u.memWake < c.memParkedWake {
					c.memParkedWake = u.memWake
				}
				continue
			}
		}
		q = append(q, ref)
		cands = append(cands, s.u)
		if i < c.readySorted {
			sorted = len(q)
		}
	}
	// Tandem insertion sort: cands mirrors q's final order without a second
	// pass over the slot array.
	start := sorted
	if start == 0 {
		start = 1
	}
	for i := start; i < len(q); i++ {
		for j := i; j > 0 && q[j] < q[j-1]; j-- {
			q[j], q[j-1] = q[j-1], q[j]
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	c.readyList = q
	c.readySorted = len(q)
	c.candScratch = cands
	return cands
}

// selectTEACands is selectCands for the companion's own ready list: the
// same compact + tandem-stamp-sort contract, minus the load parking (s.load
// is main-only) and with every entry revalidating readiness — a companion
// source register can be recycled under it (see the monotonicity argument
// atop this file).
func (c *Core) selectTEACands() []*Uop {
	q := c.teaReadyList[:0]
	cands := c.teaCandScratch[:0]
	sorted := 0
	for i, ref := range c.teaReadyList {
		s := &c.slots[ref&slotMask]
		if s.stamp != ref>>slotBits {
			continue
		}
		if !c.PRF.Ready[s.prs1] || !c.PRF.Ready[s.prs2] {
			c.home(int32(ref & slotMask))
			continue
		}
		q = append(q, ref)
		cands = append(cands, s.u)
		if i < c.teaReadySorted {
			sorted = len(q)
		}
	}
	start := sorted
	if start == 0 {
		start = 1
	}
	for i := start; i < len(q); i++ {
		for j := i; j > 0 && q[j] < q[j-1]; j-- {
			q[j], q[j-1] = q[j-1], q[j]
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	c.teaReadyList = q
	c.teaReadySorted = len(q)
	c.teaCandScratch = cands
	return cands
}

// sweepCompanionTimeouts ages companion uops out of the RS once they have
// waited past companionRSTimeout (their producer was lost to a flush). The
// age list links exactly the live companion residencies in insertion order
// and FetchCycle never decreases along it, so only its head can newly
// expire, and squashing the head unlinks it.
func (c *Core) sweepCompanionTimeouts() {
	for c.ageHead != noSlot {
		u := c.slots[c.ageHead].u
		if c.Cycle-u.FetchCycle <= companionRSTimeout {
			break
		}
		u.Squashed = true
		u.InRS = false
		c.freeSlot(u)
		c.rsTEACount--
		c.comp.UopSquashed(u)
	}
}

// companionTimeoutHorizon returns the cycle at which the oldest live
// companion RS entry will be swept (0 = none in flight) — the idle-cycle
// scanner's wake source for veto-free windows containing companion uops.
func (c *Core) companionTimeoutHorizon() uint64 {
	if c.ageHead == noSlot {
		return 0
	}
	return c.slots[c.ageHead].u.FetchCycle + companionRSTimeout + 1
}

// complNextWake returns the earliest outstanding completion cycle strictly
// after the current one, scanning the occupancy bitmap circularly from the
// current ring slot. The bool
// is false when a completion is due at the current cycle (drains on the
// next tick — the machine is not idle).
func (c *Core) complNextWake() (uint64, bool) {
	cur := int(c.Cycle % completionRing)
	if c.complMask[cur>>6]>>(uint(cur)&63)&1 != 0 {
		return 0, false
	}
	// First word: bits strictly above cur.
	w := cur >> 6
	if word := c.complMask[w] &^ (1<<(uint(cur)&63+1) - 1); word != 0 {
		d := w<<6 + bits.TrailingZeros64(word) - cur
		return c.Cycle + uint64(d), true
	}
	const words = completionRing / 64
	for i := 1; i <= words; i++ {
		wi := (w + i) % words
		if word := c.complMask[wi]; word != 0 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			d := slot - cur
			if d <= 0 {
				d += completionRing
			}
			return c.Cycle + uint64(d), true
		}
	}
	return 0, true // nothing outstanding
}
