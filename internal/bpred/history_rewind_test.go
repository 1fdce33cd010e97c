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
func TestHistoryRewindEquivalence(t *testing.T) {
	h := &History{}
	// Mix of short/long origLens with shared-length runs, mirroring how
	// TAGE registers three views per table and ITTAGE two.
	for _, l := range []uint32{4, 4, 9, 9, 26, 26, 75, 212, 212, 600, 1270, 1270, MaxFoldLen} {
		h.RegisterFold(l, 11)
		h.RegisterFold(l, 8)
	}

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
		for _, f := range h.folds {
			s.folds = append(s.folds, f.comp)
		}
		return s
	}
	check := func(step int, s *saved) {
		t.Helper()
		if h.ptr != s.ptr || h.path != s.path {
			t.Fatalf("step %d: ptr/path %d/%#x, saved %d/%#x", step, h.ptr, h.path, s.ptr, s.path)
		}
		for i, f := range h.folds {
			if f.comp != s.folds[i] {
				t.Fatalf("step %d: fold %d is %#x, saved %#x", step, i, f.comp, s.folds[i])
			}
			var want uint32
			for d := uint32(0); d < f.origLen; d++ {
				want ^= h.bitAt(d) << (d % f.compLen)
			}
			if f.comp != want {
				t.Fatalf("step %d: fold %d (%d->%d bits) is %#x, the bit buffer folds to %#x",
					step, i, f.origLen, f.compLen, f.comp, want)
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
// (outPoint 0, compLen > origLen, single-bit comps).
func TestFoldedUnupdateInverts(t *testing.T) {
	geoms := [][2]uint32{{8, 8}, {8, 3}, {3, 8}, {1270, 12}, {5, 1}, {7, 7}, {16, 11}}
	for _, g := range geoms {
		f := newFolded(g[0], g[1])
		rng := uint32(7)
		for i := 0; i < 2000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			f.comp = rng & f.mask
			nb, ob := rng>>8&1, rng>>9&1
			before := f.comp
			f.update(nb, ob)
			f.unupdate(nb, ob)
			if f.comp != before {
				t.Fatalf("fold(%d,%d): comp %#x -> update(%d,%d) -> unupdate = %#x",
					g[0], g[1], before, nb, ob, f.comp)
			}
		}
	}
}
