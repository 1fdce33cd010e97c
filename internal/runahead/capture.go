package runahead

import "teasim/internal/isa"

// capture extracts the dependence chain between the two most recent dynamic
// instances of the H2P branch at pc from the retired-instruction window —
// Branch Runahead's loop-confined Backward Dataflow Walk. The captured chain
// replaces any previous chain for the branch. Chains that exceed the uop
// budget are discarded (prior work keeps chains lightweight by design).
// Window positions count from the oldest entry; the walk reuses its scratch,
// and the chain it keeps comes from the engine's chain pool.
func (b *BR) capture(pc uint64) {
	last, prev := -1, -1
	for i := b.window.Len() - 1; i >= 0; i-- {
		e := b.window.At(i)
		if e.pc == pc && e.in.IsBranch() {
			if last == -1 {
				last = i
			} else {
				prev = i
				break
			}
		}
	}
	if last == -1 || prev == -1 {
		return // need two instances in the window (loop-confined)
	}
	if len(b.chains) >= b.Cfg.MaxChains {
		if _, exists := b.chains[pc]; !exists {
			return // chain table full
		}
	}

	// Backward walk from the branch down to (exclusive) the previous
	// instance, tracking register and memory live-ins.
	marked, memSrc := b.marked, b.memSrc
	clear(memSrc)
	var regSrc uint32
	nUops := 0
	addReg := func(r isa.Reg) {
		if r != isa.R0 {
			regSrc |= 1 << uint(r)
		}
	}
	delReg := func(r isa.Reg) { regSrc &^= 1 << uint(r) }
	hasReg := func(r isa.Reg) bool { return r != isa.R0 && regSrc&(1<<uint(r)) != 0 }

	for i := last; i > prev; i-- {
		e := b.window.At(i)
		in := e.in
		inChain := i == last
		if !inChain {
			if in.HasDest() && in.Rd != isa.R0 && hasReg(in.Rd) {
				inChain = true
			}
			if in.IsStore() && memSrc[e.addr] {
				inChain = true
			}
		}
		marked[i] = inChain
		if !inChain {
			continue
		}
		nUops++
		if in.HasDest() && in.Rd != isa.R0 {
			delReg(in.Rd)
		}
		if in.IsStore() {
			delete(memSrc, e.addr)
		}
		switch {
		case in.IsLoad():
			addReg(in.Rs1)
			memSrc[e.addr] = true
		case in.IsStore():
			addReg(in.Rs1)
			addReg(in.Rs2)
		default:
			var buf [2]isa.Reg
			for _, r := range in.Srcs(buf[:0]) {
				addReg(r)
			}
		}
	}

	if nUops == 0 || nUops > b.Cfg.MaxChainUops {
		if old := b.chains[pc]; old != nil {
			delete(b.chains, pc)
			b.unref(old)
		}
		return
	}
	// The chain is always a different one from the stored chain: in-flight
	// instances of the stored chain read its disabled flag when they
	// finish (see chain.refs).
	ch := b.newChain(pc)
	for i := prev + 1; i <= last; i++ {
		if marked[i] {
			e := b.window.At(i)
			ch.uops = append(ch.uops, chainUop{pc: e.pc, in: e.in})
		}
	}
	var dests uint32
	for _, cu := range ch.uops {
		if cu.in.HasDest() && cu.in.Rd != isa.R0 {
			dests |= 1 << uint(cu.in.Rd)
		}
	}

	// Independence: every register live-in is either produced by the chain
	// itself (loop-carried) or invariant, and no non-chain store touches a
	// chain load address (the merge-point condition that lets Branch
	// Runahead pipeline instances). Writers are checked over the WHOLE
	// retired window, not just the last iteration, so control-dependent
	// producers on rarely taken paths are still seen.
	ch.independent = true
	chainPCs := b.chainPCs
	clear(chainPCs)
	for _, cu := range ch.uops {
		chainPCs[cu.pc] = true
	}
	liveIns := regSrc &^ dests
	for i := 0; i < b.window.Len(); i++ {
		e := b.window.At(i)
		if chainPCs[e.pc] {
			continue
		}
		in := e.in
		if liveIns != 0 && in.HasDest() && in.Rd != isa.R0 &&
			liveIns&(1<<uint(in.Rd)) != 0 {
			ch.independent = false
			break
		}
		if len(memSrc) > 0 && in.IsStore() && memSrc[e.addr] {
			ch.independent = false
			break
		}
	}
	// The pipelined spawn point: the last chain uop writing a loop-carried
	// live-in; once it executes, the next instance's seed is complete.
	carried := regSrc & dests
	for i, cu := range ch.uops {
		if cu.in.HasDest() && cu.in.Rd != isa.R0 && carried&(1<<uint(cu.in.Rd)) != 0 {
			ch.lastCarryIdx = i
		}
	}

	if old := b.chains[pc]; old != nil {
		b.unref(old)
	}
	b.chains[pc] = ch
	b.Stats.ChainsCaptured++
}
