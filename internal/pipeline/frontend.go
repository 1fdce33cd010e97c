package pipeline

import (
	"teasim/internal/bpred"
	"teasim/internal/isa"
	"teasim/internal/mem"
)

// predict runs the decoupled branch predictor for one cycle: it walks the
// static code from the stream PC over the decoded-block cache, consults the
// predictor stack at each branch, and emits one fetch block (up to one
// predicted-taken branch or 32 instructions) into the fetch queue. The
// NextBr index jumps straight-line runs in O(1) instead of touching every
// instruction.
func (c *Core) predict() {
	if c.streamStalled || c.Cycle < c.streamResumeAt || c.fetchQ.len() >= c.Cfg.FetchQueueSize {
		return
	}
	dec := &c.dec
	pc := c.streamPC
	blk := c.pool.getBlock()
	blk.StartPC, blk.SeqBase, blk.Cycle = pc, c.seq, c.Cycle
	if idx, ok := dec.Index(pc); ok {
		blk.decIdx = int32(idx)
	} else {
		blk.decIdx = -1 // off-segment: the loop below emits nothing
	}
	for blk.Count < c.Cfg.MaxBlockInstrs {
		idx, ok := dec.Index(pc)
		if !ok {
			// Off the code segment (wrong path): the stream waits for a
			// redirect. Emit whatever was collected.
			c.streamStalled = true
			break
		}
		// Consume the straight-line run up to the next branch/halt at once.
		if run := int(dec.NextBr[idx]) - idx; run > 0 {
			if left := c.Cfg.MaxBlockInstrs - blk.Count; run >= left {
				// The block caps inside the run; no stall, stream continues.
				blk.Count += left
				c.seq += uint64(left)
				pc += uint64(left) * isa.InstBytes
				break
			}
			blk.Count += run
			c.seq += uint64(run)
			pc += uint64(run) * isa.InstBytes
			idx += run
		}
		t := &dec.Tmpl[idx]
		seq := c.seq
		c.seq++
		blk.Count++
		if t.IsHalt {
			// The stream ends; the halt itself is fetched and retired.
			c.streamStalled = true
			pc += isa.InstBytes
			break
		}
		rec := c.predictBranch(pc, seq, t.In, t.IsCond)
		blk.Branches = append(blk.Branches, blockBranch{idx: blk.Count - 1, rec: rec})
		if rec.PredTaken {
			pc = rec.PredTarget
			break // one taken branch per cycle
		}
		pc += isa.InstBytes
	}
	if blk.Count == 0 {
		c.pool.putBlock(blk)
		return
	}
	blk.NextPC = pc
	c.streamPC = pc
	c.fetchQ.push(blk)
	c.comp.OnBlock(blk)
}

// predictBranch consults the predictor stack (and any companion override) for
// the branch at pc and pushes its in-flight record.
func (c *Core) predictBranch(pc, seq uint64, in *isa.Inst, isCond bool) *BranchRec {
	rec := c.pool.getRec()
	rec.Seq, rec.PC, rec.In = seq, pc, in
	c.BP.PredictInto(pc, &rec.Pred)
	pred := &rec.Pred
	if isCond {
		if ovTaken, ok := c.comp.OverridePrediction(pc, seq); ok {
			switch {
			case pred.BTBHit && pred.Kind == bpred.KindCond:
				c.BP.ForceConditional(pred, ovTaken)
				rec.Precomputed = true
				rec.PreTaken = ovTaken
				rec.PreTarget = pred.Target
				rec.PreCycle = c.Cycle
			case !pred.BTBHit && !ovTaken:
				// The implicit fall-through already agrees.
				rec.Precomputed = true
				rec.PreTaken = false
				rec.PreCycle = c.Cycle
			default:
				// A taken override without a BTB target cannot redirect.
			}
		}
	}
	rec.PredTaken = pred.BTBHit && pred.Taken
	if rec.PredTaken {
		rec.PredTarget = pred.Target
		rec.PredNext = pred.Target
	} else {
		rec.PredNext = pc + isa.InstBytes
	}
	rec.OrigNext = rec.PredNext
	c.recList.push(rec)
	return rec
}

// fetch consumes fetch-queue blocks through the I-cache: up to Width
// instructions from up to FetchLinesPerCyc distinct cache lines per cycle.
func (c *Core) fetch() {
	if c.Cycle < c.fetchStallTil {
		c.Stats.FetchStallICM++
		return
	}
	width := c.Cfg.Width
	if room := c.Cfg.FrontQCap - c.frontQ.len(); room < width {
		if room <= 0 {
			return // decode/uop queue full: backpressure
		}
		width = room
	}
	var lines [4]uint64
	nLines := 0
	for width > 0 {
		if c.fetchQ.len() == 0 {
			c.Stats.EmptyFetchQ++
			return
		}
		blk := c.fetchQ.front()
		if c.mainOff >= blk.Count {
			if c.teaActive && c.teaBlk == 0 && c.teaOff < blk.Count && c.teaPopWait < 8 {
				// Give an active companion a few cycles to finish the head
				// block before recycling it; otherwise its register
				// synchronization would be lost mid-stream.
				c.teaPopWait++
				return
			}
			c.popBlock()
			continue
		}
		pc := blk.instPC(c.mainOff)
		line := mem.LineOf(pc)
		known := false
		for _, l := range lines[:nLines] {
			if l == line {
				known = true
				break
			}
		}
		if !known {
			if nLines >= c.Cfg.FetchLinesPerCyc {
				return // line bandwidth exhausted this cycle
			}
			res, ok := c.Hier.Fetch(pc, c.Cycle)
			if !ok {
				return // I-cache MSHRs full; retry next cycle
			}
			// The L1I hit latency is folded into the frontend depth, so only
			// the part of a miss beyond it stalls fetch.
			hitLat := c.Cfg.Memory.L1Lat
			if res.ReadyAt > c.Cycle+hitLat {
				c.fetchStallTil = res.ReadyAt - hitLat
				return
			}
			lines[nLines] = line
			nLines++
		}

		u := c.pool.getUop()
		u.Seq = blk.SeqBase + uint64(c.mainOff)
		u.PC = pc
		// Decode via the predecoded template: class and dest-validity were
		// cracked once at Predecode time.
		t := &c.dec.Tmpl[int(blk.decIdx)+c.mainOff]
		u.In, u.Cls, u.destValid = t.In, t.Cls, t.DestValid
		u.FetchCycle = c.Cycle
		if u.isBranch() {
			for _, bb := range blk.Branches {
				if bb.idx == c.mainOff {
					u.Rec = bb.rec
					break
				}
			}
			// BTB-miss direct unconditional branches are re-steered at
			// decode: the target is in the instruction bytes.
			if u.Rec != nil && !u.Rec.Pred.BTBHit &&
				(u.In.Op == isa.OpJmp || u.In.Op == isa.OpCall) {
				c.pendingRedirects = append(c.pendingRedirects, pendingRedirect{
					atCycle: c.Cycle + 2,
					seq:     u.Rec.Seq,
					pc:      u.PC,
					target:  uint64(u.In.Imm),
				})
			}
		}
		if blk.TEAMaskValid {
			u.MaskSeen = true
			u.ChainMarked = blk.TEAMask&(1<<uint(c.mainOff)) != 0
		}
		c.frontQ.push(u)
		c.comp.OnMainFetch(u)
		c.Stats.FetchedUops++
		c.mainOff++
		width--
	}
}

// popBlock removes the fully fetched head block, shifting the TEA cursor.
// If the companion cursor was inside (or at) the popped block, the main
// thread has overtaken it: the companion's register synchronization point no
// longer matches the stream, and it must re-sync at the next flush.
func (c *Core) popBlock() {
	c.pool.putBlock(c.fetchQ.popFront())
	c.mainOff = 0
	c.teaPopWait = 0
	if c.teaBlk > 0 {
		c.teaBlk--
	} else {
		c.teaOff = 0
		c.teaCursorInvalid = true
	}
}

// TEACursorInvalid reports (and clears) whether the main thread consumed
// blocks past the companion cursor since the last reset.
func (c *Core) TEACursorInvalid() bool {
	v := c.teaCursorInvalid
	return v
}

// processRedirects applies decode-time re-steers for direct branches the
// BTB missed. The redirect is skipped if a flush already removed the branch
// or an earlier redirect/flush already fixed the stream.
func (c *Core) processRedirects() {
	kept := c.pendingRedirects[:0]
	for _, pr := range c.pendingRedirects {
		if pr.atCycle > c.Cycle {
			kept = append(kept, pr)
			continue
		}
		rec := c.Branch(pr.seq)
		if rec == nil || rec.PC != pr.pc || rec.PredTaken {
			continue // squashed, or already corrected
		}
		c.Stats.ResteerDecode++
		c.flushAfter(rec.Seq, pr.target, rec, true, pr.target)
	}
	c.pendingRedirects = kept
}

// TEANextBlockPeek returns the block at the companion cursor without
// consistency checks (helper after advancing).
func (c *Core) TEANextBlockPeek() *FetchBlock {
	if c.teaBlk >= c.fetchQ.len() {
		return nil
	}
	return c.fetchQ.at(c.teaBlk)
}

// TEACursor returns the companion's current block and offset.
func (c *Core) TEACursor() (blk *FetchBlock, off int) {
	if c.teaBlk >= c.fetchQ.len() {
		return nil, 0
	}
	return c.fetchQ.at(c.teaBlk), c.teaOff
}

// TEASetOffset moves the companion's intra-block offset.
func (c *Core) TEASetOffset(off int) { c.teaOff = off }

func (c *Core) teaAdvanceBlock() {
	c.teaBlk++
	c.teaOff = 0
}

// TEAAdvanceBlock moves the companion cursor to the next block.
func (c *Core) TEAAdvanceBlock() { c.teaAdvanceBlock() }

// TEALeadBlocks reports how many blocks the companion cursor is ahead of
// the main thread's fetch position (the shadow-fetch-queue occupancy).
func (c *Core) TEALeadBlocks() int { return c.teaBlk }

// TEAResetCursor moves the companion cursor to the end of the fetch queue
// (used when the companion restarts: it picks up the newest stream).
func (c *Core) TEAResetCursor() {
	c.teaBlk = c.fetchQ.len()
	c.teaOff = 0
	c.teaCursorInvalid = false
}
