package pipeline

import (
	"testing"
	"testing/quick"

	"teasim/internal/isa"
)

func TestQueueBasics(t *testing.T) {
	var q queue[int]
	if q.len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.push(1)
	q.push(2)
	q.push(3)
	if q.len() != 3 || q.front() != 1 || q.at(2) != 3 {
		t.Fatalf("queue state wrong: len=%d", q.len())
	}
	if got := q.popFront(); got != 1 {
		t.Fatalf("pop = %d", got)
	}
	q.truncFrom(1) // keep only element 2
	if q.len() != 1 || q.front() != 2 {
		t.Fatalf("after trunc: len=%d", q.len())
	}
	q.clear()
	if q.len() != 0 {
		t.Fatal("clear failed")
	}
}

// Property: a queue behaves exactly like a reference slice under a random
// sequence of push/pop/truncate operations, including across the internal
// compaction threshold.
func TestQueueMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q queue[int]
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push (biased: growth exercises compaction)
				q.push(next)
				ref = append(ref, next)
				next++
			case 2: // pop
				if len(ref) > 0 {
					if q.popFront() != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 3: // truncate tail at a pseudo-random point
				if len(ref) > 0 {
					k := int(op) % len(ref)
					q.truncFrom(k)
					ref = ref[:k]
				}
			}
			if q.len() != len(ref) {
				return false
			}
			for i, v := range ref {
				if q.at(i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCompactionReusesStorage(t *testing.T) {
	var q queue[int]
	for i := 0; i < 1000; i++ {
		q.push(i)
	}
	for i := 0; i < 900; i++ {
		q.popFront()
	}
	// After heavy popping the head index must have been compacted away.
	if q.head > len(q.buf) {
		t.Fatal("head escaped buffer")
	}
	if q.len() != 100 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 100; i++ {
		if q.at(i) != 900+i {
			t.Fatalf("content lost at %d", i)
		}
	}
}

func TestPRFPartitionCap(t *testing.T) {
	var p PRF
	p.init(64, make([]uint64, 80), make([]bool, 80), make([]uint16, 0, 64-isa.NumRegs))
	// 32 arch regs are pre-allocated; cap of 40 leaves 8 allocatable.
	p.SetMainCap(40)
	var got []uint16
	for p.CanAlloc() {
		got = append(got, p.Alloc())
	}
	if len(got) != 8 {
		t.Fatalf("allocatable under cap = %d, want 8", len(got))
	}
	p.Free(got[0])
	if !p.CanAlloc() {
		t.Fatal("free did not restore headroom")
	}
	if p.ExtraBase() != 64 {
		t.Fatalf("extra base = %d", p.ExtraBase())
	}
}
