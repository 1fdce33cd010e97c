package pipeline

import "teasim/internal/isa"

// flushAfter squashes every in-flight instruction younger than seq, restores
// the RAT by walking the ROB tail backwards, repairs the branch predictor
// from the flushed branch's snapshot, truncates the fetch queue, and
// redirects the BP stream to redirectPC.
//
// The same mechanism serves execute-time mispredictions, decode re-steers,
// and TEA early flushes: because seq totally orders all in-flight work
// (including instructions still in the frontend), a flush for a branch that
// has not reached rename yet naturally becomes a *partial frontend flush* —
// instructions older than the branch are untouched (paper §IV-F).
func (c *Core) flushAfter(seq uint64, redirectPC uint64, rec *BranchRec, actualTaken bool, actualTarget uint64) {
	// Predictor recovery: rewind speculative history/RAS to just before the
	// branch and re-apply its actual outcome.
	if rec != nil {
		c.BP.Recover(&rec.Pred, rec.In, actualTaken, actualTarget)
		rec.PredTaken = actualTaken
		rec.PredTarget = actualTarget
		if actualTaken {
			rec.PredNext = actualTarget
		} else {
			rec.PredNext = rec.PC + isa.InstBytes
		}
	}

	// ROB walk-back: undo rename newest-first, freeing physical registers.
	i := c.rob.len() - 1
	for i >= 0 && c.rob.at(i).Seq > seq {
		u := c.rob.at(i)
		u.Squashed = true
		if u.HasDest {
			c.rat[u.In.Rd] = u.PrevPrd
			c.PRF.Free(u.Prd)
		}
		if u.isLoad() {
			c.lqCount--
		}
		if u.isStore() {
			c.sqCount--
		}
		if u.Executed {
			// Already drained from the completion ring: no later stage will
			// see this uop again, so recycle it here (un-executed uops come
			// back through the ring or the RS sweep below instead).
			c.pool.putUop(u)
		}
		i--
	}
	c.rob.truncFrom(i + 1)

	// Store queue: squashed stores are the (age-ordered) tail.
	j := c.sq.len()
	for j > 0 && c.sq.at(j-1).Seq > seq {
		j--
	}
	c.sq.truncFrom(j)
	c.storeEpoch++ // SQ population (or surviving loads' elders) changed

	// Reservation stations: squash waiting entries younger than the branch.
	// Companion uops share timestamps with their main-thread counterparts,
	// so the same age comparison covers both threads (paper §IV-F). Issued
	// companion uops in flight are squashed by the companion in OnFlush;
	// issued main-thread uops were marked during the ROB walk-back.
	rs := c.rs[:0]
	stamps := c.rsStamps[:0]
	for i, u := range c.rs {
		if u.rsStamp != c.rsStamps[i] || !u.InRS {
			continue
		}
		if u.Seq > seq {
			u.Squashed = true
			u.InRS = false
			c.freeSlot(u)
			if u.TEA {
				c.rsTEACount--
				c.comp.UopSquashed(u)
			} else {
				c.rsMainCount--
				c.pool.putUop(u) // renamed but never issued
			}
			continue
		}
		rs = append(rs, u)
		stamps = append(stamps, c.rsStamps[i])
	}
	c.rs, c.rsStamps = rs, stamps

	// Frontend pipe: fetched-but-not-renamed uops younger than seq are the
	// tail of the (age-ordered) pipe.
	j = c.frontQ.len()
	for j > 0 && c.frontQ.at(j-1).Seq > seq {
		j--
		u := c.frontQ.at(j)
		u.Squashed = true
		c.pool.putUop(u) // never renamed
	}
	c.frontQ.truncFrom(j)

	// Fetch queue: truncate the block containing seq, drop younger blocks.
	cut := c.fetchQ.len()
	for bi := 0; bi < c.fetchQ.len(); bi++ {
		blk := c.fetchQ.at(bi)
		if blk.SeqBase > seq {
			cut = bi
			break
		}
		if seq < blk.SeqBase+uint64(blk.Count) {
			blk.truncate(seq)
			cut = bi + 1
			break
		}
	}
	for bi := cut; bi < c.fetchQ.len(); bi++ {
		c.pool.putBlock(c.fetchQ.at(bi))
	}
	c.fetchQ.truncFrom(cut)
	if c.teaBlk > c.fetchQ.len() {
		c.teaBlk = c.fetchQ.len()
		c.teaOff = 0
	}
	if c.fetchQ.len() == 0 {
		c.mainOff = 0
	} else if c.mainOff > c.fetchQ.front().Count {
		c.mainOff = c.fetchQ.front().Count
	}

	// In-flight branch queue: records younger than seq form the tail of the
	// age-ordered list.
	j = c.recList.len()
	for j > 0 && c.recList.at(j-1).Seq > seq {
		j--
		c.pool.putRec(c.recList.at(j))
	}
	c.recList.truncFrom(j)

	// Restart the BP stream at the corrected PC after the recovery latency.
	c.streamPC = redirectPC
	c.streamStalled = false
	c.streamResumeAt = c.Cycle + c.Cfg.MispredictExtraLat
	c.fetchStallTil = 0

	if c.telem != nil && c.telem.TraceOn(c.Cycle) {
		c.telemFlush(seq, redirectPC, c.earlyFlush)
	}

	// After the walk-back, the flushed branch (if it had renamed) is the
	// youngest surviving ROB entry.
	branchRenamed := c.rob.len() > 0 && c.rob.at(c.rob.len()-1).Seq == seq
	c.comp.OnFlush(seq, branchRenamed)
}
