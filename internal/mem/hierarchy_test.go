package mem

import (
	"testing"
	"testing/quick"

	"teasim/tea/spec"
)

// tableI is the Table I memory system: the baseline preset's memory section.
func tableI() spec.Memory { return spec.Baseline().Memory }

func newH() *Hierarchy { return NewHierarchy(tableI()) }

func TestColdMissThenHit(t *testing.T) {
	h := newH()
	r1, ok := h.Load(0x10000, 100)
	if !ok {
		t.Fatal("load rejected")
	}
	if r1.HitL1 || r1.HitLLC || !r1.DRAM {
		t.Fatalf("cold access should go to DRAM: %+v", r1)
	}
	if r1.ReadyAt < 100+4+18+40 {
		t.Fatalf("DRAM latency unrealistically low: %d", r1.ReadyAt-100)
	}
	// A later access after the fill is an L1 hit with hit latency.
	r2, _ := h.Load(0x10008, r1.ReadyAt+10)
	if !r2.HitL1 {
		t.Fatalf("expected L1 hit: %+v", r2)
	}
	if r2.ReadyAt != r1.ReadyAt+10+4 {
		t.Fatalf("hit latency = %d", r2.ReadyAt-(r1.ReadyAt+10))
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	h := newH()
	r1, _ := h.Load(0x20000, 50)
	// Another access to the same line before the fill completes must return
	// the same completion cycle (MSHR merge), not start a new DRAM access.
	reads := h.DRAM.Reads
	r2, ok := h.Load(0x20010, 60)
	if !ok {
		t.Fatal("secondary miss rejected")
	}
	if !r2.HitL1 {
		t.Fatalf("secondary miss should merge as hit-on-fill: %+v", r2)
	}
	if r2.ReadyAt != r1.ReadyAt {
		t.Fatalf("merged miss readyAt %d != primary %d", r2.ReadyAt, r1.ReadyAt)
	}
	if h.DRAM.Reads != reads {
		t.Fatal("secondary miss issued a new DRAM read")
	}
}

func TestRowBufferHitFasterThanConflict(t *testing.T) {
	d := &DRAM{}
	line := uint64(0x100000)
	done1 := d.Access(0, line, false)
	// Same row, next line in the same bank: stride by channels*banks lines.
	sameRow := line + LineBytes*dramChannels*dramBanks
	done2 := d.Access(done1, sameRow, false) - done1
	// Different row, same bank → conflict.
	conflictRow := line + LineBytes*dramChannels*dramBanks<<colBits
	done3 := d.Access(done1+done2+1000, conflictRow, false) - (done1 + done2 + 1000)
	if d.RowHits == 0 || d.RowConflicts == 0 {
		t.Fatalf("hits=%d conflicts=%d", d.RowHits, d.RowConflicts)
	}
	if done2 >= done3 {
		t.Fatalf("row hit (%d) should beat conflict (%d)", done2, done3)
	}
}

func TestBankParallelism(t *testing.T) {
	d := &DRAM{}
	// Two accesses to different banks starting together overlap: the second
	// finishes well before 2x a single access.
	single := d.Access(0, 0, false)
	d2 := &DRAM{}
	a := d2.Access(0, 0, false)
	b := d2.Access(0, LineBytes*dramChannels, false) // next bank, same channel
	if b >= a+single {
		t.Fatalf("no bank parallelism: a=%d b=%d single=%d", a, b, single)
	}
}

func TestMSHRLimitRejects(t *testing.T) {
	cfg := tableI()
	cfg.L1MSHRs = 2
	h := NewHierarchy(cfg)
	if _, ok := h.Load(0x0000, 10); !ok {
		t.Fatal("first miss rejected")
	}
	if _, ok := h.Load(0x10000, 10); !ok {
		t.Fatal("second miss rejected")
	}
	if _, ok := h.Load(0x20000, 10); ok {
		t.Fatal("third miss should be rejected with 2 MSHRs")
	}
	// After the fills complete, new misses are accepted again.
	if _, ok := h.Load(0x20000, 10_000_000); !ok {
		t.Fatal("miss rejected after MSHRs drained")
	}
}

func TestLRUEviction(t *testing.T) {
	// Fill one L1D set (12 ways) plus one more; the first line must be gone.
	h := newH()
	setStride := uint64(48<<10) / 12 // bytes covering one set walk = sets*LineBytes
	base := uint64(0x100000)
	now := uint64(0)
	var lines []uint64
	for i := 0; i <= 12; i++ {
		ln := base + uint64(i)*setStride
		lines = append(lines, ln)
		r, ok := h.Load(ln, now)
		if !ok {
			t.Fatalf("load %d rejected", i)
		}
		now = r.ReadyAt + 1
	}
	if h.L1D.Probe(LineOf(lines[0]), now) {
		t.Fatal("LRU victim not evicted")
	}
	if !h.L1D.Probe(LineOf(lines[12]), now) {
		t.Fatal("most recent line missing")
	}
}

func TestDirtyWritebackReachesDRAM(t *testing.T) {
	cfg := tableI()
	cfg.L1DSize = 12 * LineBytes // 1 set, 12 ways: tiny cache to force evictions
	cfg.LLCSize = 16 * LineBytes // 1 set, 16 ways
	h := NewHierarchy(cfg)
	now := uint64(0)
	// Dirty 40 distinct lines; evictions must cascade to DRAM writes.
	for i := 0; i < 40; i++ {
		r, ok := h.StoreCommit(uint64(i)*LineBytes*7, now)
		if !ok {
			now += 1000
			continue
		}
		now = r.ReadyAt + 1
	}
	if h.DRAM.Writes == 0 {
		t.Fatal("no dirty writebacks reached DRAM")
	}
}

func TestFetchUsesL1I(t *testing.T) {
	h := newH()
	h.Fetch(0x400, 0)
	if h.L1I.Accesses != 1 || h.L1D.Accesses != 0 {
		t.Fatalf("I/D split broken: I=%d D=%d", h.L1I.Accesses, h.L1D.Accesses)
	}
}

// Property: completion time is always at least hit latency after issue, and
// accesses to the same line never report an earlier ReadyAt than an
// outstanding fill for that line.
func TestMonotoneCompletionProperty(t *testing.T) {
	h := newH()
	now := uint64(0)
	lastReady := map[uint64]uint64{}
	f := func(addrSeed uint32, delta uint8) bool {
		now += uint64(delta)
		addr := uint64(addrSeed) % (1 << 22)
		r, ok := h.Load(addr, now)
		if !ok {
			return true // MSHR full is a legal outcome
		}
		if r.ReadyAt < now+4 {
			return false
		}
		line := LineOf(addr)
		if prev, seen := lastReady[line]; seen && r.ReadyAt < prev && prev > now {
			return false // reported earlier than the outstanding fill
		}
		lastReady[line] = r.ReadyAt
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateGuardsNewHierarchy pins spec.Validate to the constructor it
// guards: for every row, Validate rejects the machine exactly when
// NewHierarchy panics on its memory section.
func TestValidateGuardsNewHierarchy(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(m *spec.Memory)
		invalid bool
	}{
		{"Table I", func(m *spec.Memory) {}, false},
		{"L1D sets not a power of two", func(m *spec.Memory) { m.L1DWays = 5 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec.Baseline()
			tc.mut(&s.Memory)
			verr := s.Validate()
			panicked := func() (did bool) {
				defer func() { did = recover() != nil }()
				NewHierarchy(s.Memory)
				return false
			}()
			if (verr != nil) != panicked {
				t.Fatalf("Validate error %v, but NewHierarchy panicked = %v", verr, panicked)
			}
			if panicked != tc.invalid {
				t.Fatalf("NewHierarchy panicked = %v, want %v (Validate: %v)", panicked, tc.invalid, verr)
			}
		})
	}
}
