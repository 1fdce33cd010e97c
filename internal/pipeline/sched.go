package pipeline

// Event-driven wakeup/select scheduling for the reservation stations.
//
// The naive scheduler re-scans every RS entry every cycle to find ready
// candidates — O(RS) work per simulated cycle that dominates the simulator's
// wall-clock on big windows. Hardware does not do that and neither do we:
// each RS entry waits on (at most) one not-ready source register at a time,
// registered in a per-physical-register waiter list. The single place a
// register becomes ready (PRF.Write in the writeback stage) wakes its
// waiters; entries whose operands are all ready sit on a ready list, the
// only thing the select loop walks. Selection still visits candidates in RS
// insertion order (restored by an insertion-order stamp), so port binding
// matches a full scan. sched_bitset.go holds the slot array and lists.
//
// Stale references are unavoidable with pooled uops: a squashed entry's
// pointer can be recycled into a brand-new RS entry while old lists still
// hold it. Every ready-list reference therefore carries the rsStamp the uop
// had when the reference was taken; a mismatch marks it dead.

// insertRS registers a just-renamed uop with the scheduler. The caller has
// already set InRS and the occupancy counts. The rs/rsStamps insertion-order
// list is what flushes and companion squashes walk, and it is the paranoia
// checker's ground truth.
func (c *Core) insertRS(u *Uop) {
	c.rsStampCtr++
	u.rsStamp = c.rsStampCtr
	c.rs = append(c.rs, u)
	c.rsStamps = append(c.rsStamps, u.rsStamp)
	// The rs list is compacted lazily (flushes do it for free); bound the
	// dead-entry overhead between flushes.
	if len(c.rs) > 2*(c.rsMainCount+c.rsTEACount)+64 {
		c.compactRS()
	}
	slot := c.allocSlot()
	u.rsSlot = int32(slot)
	// A free slot is all zero (freeSlot clears it), so only the fields a
	// residency sets need writing.
	s := &c.slots[slot]
	s.u, s.stamp, s.prs1, s.prs2 = u, u.rsStamp, u.Prs1, u.Prs2
	s.tea, s.load = u.TEA, !u.TEA && u.isLoad()
	if u.TEA {
		// Append to the age list: insertion order is fetch order.
		s.aprev, s.anext = c.ageTail, noSlot
		if c.ageTail != noSlot {
			c.slots[c.ageTail].anext = int32(slot)
		} else {
			c.ageHead = int32(slot)
		}
		c.ageTail = int32(slot)
	}
	c.home(int32(slot))
}

// wakeWaiters is called when register p transitions to ready: every entry
// waiting on it either moves on to its other (still unready) source or
// becomes a select candidate on its thread's ready list. Which list a ref
// lands on, and in what order, never affects results: each list is
// stamp-sorted before select reads it.
func (c *Core) wakeWaiters(p uint16) {
	slot := c.wHead[p]
	c.wHead[p] = noSlot
	for slot != noSlot {
		s := &c.slots[slot]
		next := s.wnext
		s.waiting = false
		c.home(slot)
		slot = next
	}
}

// compactRS drops dead entries from the insertion-ordered rs list.
func (c *Core) compactRS() {
	rs := c.rs[:0]
	stamps := c.rsStamps[:0]
	for i, u := range c.rs {
		if u.rsStamp != c.rsStamps[i] || !u.InRS {
			continue
		}
		rs = append(rs, u)
		stamps = append(stamps, c.rsStamps[i])
	}
	c.rs, c.rsStamps = rs, stamps
}
