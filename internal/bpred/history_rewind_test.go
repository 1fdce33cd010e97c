package bpred

import "testing"

// TestHistoryRewindEquivalence drives a history through random push /
// checkpoint / mispredict-restore sequences — including restores that
// unwind past several younger checkpoints, as nested flushes do — and
// holds every Restore to two oracles that share no code with it: the ptr,
// path register and folds read off the history when the checkpoint was
// saved, and a from-scratch recompute of every fold from the bit buffer.
// Checkpoints stay in flight for up to historyBits-MaxFoldLen-1 pushes and
// the longest fold is MaxFoldLen bits, so the buffer is used to its limit.
// It runs on a synthetic geometry with a MaxFoldLen fold and on the folds
// NewWithConfig registers for Table I.
func TestHistoryRewindEquivalence(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		h := &History{}
		// Mix of short/long origLens with shared-length runs, mirroring how
		// TAGE registers three views per table and ITTAGE two.
		for _, l := range []uint32{4, 4, 9, 9, 26, 26, 75, 212, 212, 600, 1270, 1270, MaxFoldLen} {
			h.RegisterFold(l, 11)
			h.RegisterFold(l, 8)
		}
		checkRewind(t, h)
	})
	t.Run("tableI", func(t *testing.T) {
		p := newTableI()
		h := &p.Hist
		widths, lens := map[uint32]bool{}, map[uint32]bool{}
		minW, maxW := uint32(32), uint32(0)
		for _, f := range h.folds[:h.nFolds] {
			widths[f.compLen], lens[f.origLen] = true, true
			minW, maxW = min(minW, f.compLen), max(maxW, f.compLen)
		}
		if h.nFolds != 43 || len(widths) != 6 || minW != 7 || maxW != 12 || len(lens) != 16 {
			t.Fatalf("Table I registers %d folds in %d widths (%d..%d bits) over %d history lengths, want 43 in 6 (7..12) over 16",
				h.nFolds, len(widths), minW, maxW, len(lens))
		}
		checkRewind(t, h)
	})
}

// checkRewind runs the rewind oracle on h, whose folds are registered.
func checkRewind(t *testing.T, h *History) {
	rng := uint32(0x8124)
	rnd := func(n uint32) uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng % n
	}
	// saved is a checkpoint plus the state it must restore.
	type saved struct {
		ck        Checkpoint
		ptr, path uint32
		folds     []uint32
	}
	save := func() saved {
		s := saved{ptr: h.ptr, path: h.path}
		h.SaveInto(&s.ck)
		s.folds = append(s.folds, h.comps[:h.nFolds]...)
		return s
	}
	check := func(step int, s *saved) {
		t.Helper()
		if h.ptr != s.ptr || h.path != s.path {
			t.Fatalf("step %d: ptr/path %d/%#x, saved %d/%#x", step, h.ptr, h.path, s.ptr, s.path)
		}
		for i, f := range h.folds[:h.nFolds] {
			comp := h.comps[i]
			if comp != s.folds[i] {
				t.Fatalf("step %d: fold %d is %#x, saved %#x", step, i, comp, s.folds[i])
			}
			var want uint32
			for d := uint32(0); d < f.origLen; d++ {
				want ^= h.bitAt(h.ptr, d) << (d % f.compLen)
			}
			if comp != want {
				t.Fatalf("step %d: fold %d (%d->%d bits) is %#x, the bit buffer folds to %#x",
					step, i, f.origLen, f.compLen, comp, want)
			}
		}
	}

	// Checkpoints live on a stack with flush semantics: a mispredict at
	// entry k squashes every younger checkpoint. Entries older than the
	// validity window are retired off the bottom, exactly as the pipeline
	// retires branches. Every other stretch has no random mispredicts, so
	// the stack fills the window, and flushes to its oldest entry once that
	// entry is exactly window pushes old: the deepest restore allowed.
	const (
		window  = historyBits - MaxFoldLen - 1
		stretch = 3500
	)
	var stack []saved
	flush := func(step, k int) {
		s := stack[k]
		stack = stack[:k]
		h.Restore(&s.ck)
		check(step, &s)
	}
	for step := 0; step < 12*stretch; step++ {
		quiet := step/stretch%2 == 1
		switch rnd(12) {
		case 0, 1: // a branch is predicted: checkpoint
			stack = append(stack, save())
		case 2: // mispredict: flush to a random in-flight branch
			if !quiet && len(stack) > 0 {
				flush(step, int(rnd(uint32(len(stack)))))
			}
		case 3: // taken branch mixes path history
			h.PushPath(uint64(rnd(1<<20)) * 4)
		default: // speculative history bit
			h.Push(rnd(2) == 1)
		}
		for len(stack) > 0 && h.pushes-stack[0].ck.pushes > window {
			stack = stack[1:] // oldest branch retires; checkpoint expires
		}
		if quiet && len(stack) > 0 && h.pushes-stack[0].ck.pushes == window {
			flush(step, 0)
		}
	}
	// Final unwind all the way down the stack, oldest last.
	for k := len(stack) - 1; k >= 0; k-- {
		h.Restore(&stack[k].ck)
		check(100000+k, &stack[k])
	}
}

// TestFoldedUnupdateInverts exercises the algebraic inverse directly over
// all (newBit, oldBit) pairs and many comp values for awkward geometries
// (the outgoing bit folding into bit 0, compLen > origLen, single-bit
// comps).
func TestFoldedUnupdateInverts(t *testing.T) {
	geoms := [][2]uint32{{8, 8}, {8, 3}, {3, 8}, {1270, 12}, {5, 1}, {7, 7}, {16, 11}}
	for _, g := range geoms {
		f := newFolded(g[0], g[1])
		rng := uint32(7)
		for i := 0; i < 2000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			before := rng & f.mask
			nb, ob := rng>>8&1, rng>>9&1
			if got := f.unupdate(f.update(before, nb, ob), nb, ob); got != before {
				t.Fatalf("fold(%d,%d): comp %#x -> update(%d,%d) -> unupdate = %#x",
					g[0], g[1], before, nb, ob, got)
			}
		}
	}
}
