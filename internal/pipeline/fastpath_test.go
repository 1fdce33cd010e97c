package pipeline

import (
	"strings"
	"testing"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

func newIdleCore(t *testing.T) *Core {
	t.Helper()
	b := asm.NewBuilder()
	b.Halt()
	return New(DefaultConfig(), b.MustBuild())
}

// rsStage registers a fake ready RS entry with the scheduler (both source
// registers map to always-ready architectural r0).
func rsStage(c *Core, seq uint64) *Uop {
	u := c.pool.getUop()
	u.Seq = seq
	u.InRS = true
	c.rsMainCount++
	c.insertRS(u)
	return u
}

func rsDrop(c *Core, u *Uop) {
	u.InRS = false
	u.Squashed = true
	c.freeSlot(u)
	c.rsMainCount--
}

// TestBitsetSlotAllocLowestFirst: the slot bitmap hands out the lowest free
// slot, and freed slots are reused before fresh ones.
func TestBitsetSlotAllocLowestFirst(t *testing.T) {
	c := newIdleCore(t)
	a, b, d := rsStage(c, 1), rsStage(c, 2), rsStage(c, 3)
	if a.rsSlot != 0 || b.rsSlot != 1 || d.rsSlot != 2 {
		t.Fatalf("slots = %d,%d,%d, want 0,1,2", a.rsSlot, b.rsSlot, d.rsSlot)
	}
	rsDrop(c, b)
	e := rsStage(c, 4)
	if e.rsSlot != 1 {
		t.Fatalf("freed slot not reused lowest-first: got %d, want 1", e.rsSlot)
	}
}

// TestBitsetSelectOrderIsAgeOrder: select returns candidates in RS insertion
// (age) order even when slot reuse makes slot numbers disagree with age —
// the packed (stamp<<16|slot) refs sort by stamp, never by slot.
func TestBitsetSelectOrderIsAgeOrder(t *testing.T) {
	c := newIdleCore(t)
	a, b, d := rsStage(c, 10), rsStage(c, 11), rsStage(c, 12)
	_ = a
	if got := c.selectCands(); len(got) != 3 {
		t.Fatalf("select returned %d candidates, want 3", len(got))
	}
	// Squash the middle entry; the next insert reuses its (lower) slot.
	rsDrop(c, b)
	e := rsStage(c, 13)
	if e.rsSlot >= d.rsSlot {
		t.Fatalf("test premise broken: e slot %d not below d slot %d", e.rsSlot, d.rsSlot)
	}
	got := c.selectCands()
	want := []uint64{10, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("select returned %d candidates, want %d", len(got), len(want))
	}
	for i, u := range got {
		if u.Seq != want[i] {
			t.Fatalf("candidate %d has seq %d, want %d (age order violated)", i, u.Seq, want[i])
		}
	}
	// The compacted list survives as the sorted prefix.
	if c.readySorted != len(c.readyList) {
		t.Fatalf("readySorted=%d, list=%d", c.readySorted, len(c.readyList))
	}
}

// TestComplNextWake: the completion bitmap scan finds the earliest
// outstanding writeback — veto when due now, earliest future slot
// otherwise, circular wraparound included.
func TestComplNextWake(t *testing.T) {
	c := newIdleCore(t)
	set := func(slot int) { c.complMask[slot>>6] |= 1 << uint(slot&63) }
	clearAll := func() { c.complMask = [completionRing / 64]uint64{} }

	if at, ok := c.complNextWake(); !ok || at != 0 {
		t.Fatalf("empty ring: got (%d,%v), want (0,true)", at, ok)
	}
	set(0) // due at the current cycle (Cycle=0): veto
	if _, ok := c.complNextWake(); ok {
		t.Fatal("completion due now did not veto idleness")
	}
	clearAll()
	set(100)
	if at, ok := c.complNextWake(); !ok || at != 100 {
		t.Fatalf("slot 100: got (%d,%v), want (100,true)", at, ok)
	}
	clearAll()
	set(63) // same word as cur=0, last bit
	if at, ok := c.complNextWake(); !ok || at != 63 {
		t.Fatalf("slot 63: got (%d,%v), want (63,true)", at, ok)
	}
	// Wraparound: cur near the end of the ring, completion near the start.
	clearAll()
	c.Cycle = 16380
	set(5)
	if at, ok := c.complNextWake(); !ok || at != 16380+(5-16380+completionRing) {
		t.Fatalf("wraparound: got (%d,%v)", at, ok)
	}
	// Same word, bit below cur: must wrap the whole ring, not go backwards.
	clearAll()
	c.Cycle = 70 // word 1, bit 6
	set(65)
	if at, ok := c.complNextWake(); !ok || at != 70+(65-70+completionRing) {
		t.Fatalf("same-word wrap: got (%d,%v), want (%d,true)", at, ok, 70+(65-70+completionRing))
	}
}

// TestSelfModifyingStoreRejected: the decoded-block cache is valid only for
// immutable code, so a store into the code segment must abort the run.
func TestSelfModifyingStoreRejected(t *testing.T) {
	b := asm.NewBuilder()
	b.LiU(isa.R1, asm.DefaultCodeBase)
	b.Li(isa.R2, 1)
	b.St(isa.R1, 0, isa.R2)
	b.Halt()
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	c := New(cfg, b.MustBuild())
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "self-modifying") {
		t.Fatalf("store into the code segment did not error: %v", err)
	}
}
