package pipeline

// rename moves rename-ready uops from the frontend pipe into the ROB and
// reservation stations, in order, allocating physical registers and
// load/store queue slots. The companion claims issue slots first (priority
// at Issue, paper §IV-D); main rename uses the remainder.
func (c *Core) rename() {
	width := c.Cfg.Width - c.issueSlotsUsed
	for width > 0 && c.frontQ.len() > 0 {
		u := c.frontQ.front()
		if u.FetchCycle+c.Cfg.FetchToRenameLat > c.Cycle {
			return // still in the frontend pipe
		}
		if c.rob.len() >= c.Cfg.ROBSize {
			return
		}
		if c.rsMainCount >= c.mainRSCap {
			return
		}
		hasDest := u.destValid // cached at fetch: HasDest() && Rd != R0
		if hasDest && !c.PRF.CanAlloc() {
			return
		}
		if u.isLoad() && c.lqCount >= c.Cfg.LQSize {
			return
		}
		if u.isStore() && c.sqCount >= c.Cfg.SQSize {
			return
		}

		c.frontQ.popFront()
		u.Prs1 = c.rat[u.In.Rs1]
		u.Prs2 = c.rat[u.In.Rs2]
		u.HasDest = hasDest
		if hasDest {
			u.PrevPrd = c.rat[u.In.Rd]
			u.Prd = c.PRF.Alloc()
			c.rat[u.In.Rd] = u.Prd
		}
		c.rob.push(u)
		u.InRS = true
		c.rsMainCount++
		c.insertRS(u)
		if u.isLoad() {
			c.lqCount++
		}
		if u.isStore() {
			c.sqCount++
			c.sq.push(u)
			c.storeEpoch++
		}
		width--
	}
}

// InsertCompanionUop places a companion (TEA) uop into the shared backend.
// It consumes one of the cycle's issue slots and one companion RS entry.
// Returns false if no slot or RS capacity is available this cycle.
func (c *Core) InsertCompanionUop(u *Uop) bool {
	if c.issueSlotsUsed >= c.Cfg.Width {
		return false
	}
	if c.rsTEACount >= c.teaRSCap {
		return false
	}
	c.issueSlotsUsed++
	c.rsTEACount++
	u.InRS = true
	u.TEA = true
	c.insertRS(u)
	return true
}

// IssueSlotsLeft reports how many of this cycle's 8 issue slots remain.
func (c *Core) IssueSlotsLeft() int { return c.Cfg.Width - c.issueSlotsUsed }

// SquashCompanionWaiting removes every companion uop still waiting in the
// reservation stations (used when the companion drains: waiting uops may
// depend on registers that will never become ready). Issued uops are left
// to complete through the normal writeback path.
func (c *Core) SquashCompanionWaiting() {
	rs := c.rs[:0]
	stamps := c.rsStamps[:0]
	for i, u := range c.rs {
		if u.rsStamp != c.rsStamps[i] || !u.InRS {
			continue
		}
		if u.TEA {
			u.Squashed = true
			u.InRS = false
			c.freeSlot(u)
			c.rsTEACount--
			c.comp.UopSquashed(u)
			continue
		}
		rs = append(rs, u)
		stamps = append(stamps, c.rsStamps[i])
	}
	c.rs, c.rsStamps = rs, stamps
}

// CompanionRSFree reports remaining companion RS capacity.
func (c *Core) CompanionRSFree() int { return c.teaRSCap - c.rsTEACount }
