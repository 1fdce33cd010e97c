package ring

import "testing"

// TestRingKeepsNewest: the window holds the last size pushes, oldest first,
// matching an append-and-drop-front slice at every step.
func TestRingKeepsNewest(t *testing.T) {
	const size = 5
	r := New[int](size)
	var ref []int
	for v := 0; v < 23; v++ {
		r.Push(v)
		if ref = append(ref, v); len(ref) > size {
			ref = ref[1:]
		}
		if r.Len() != len(ref) {
			t.Fatalf("after %d pushes: Len %d, want %d", v+1, r.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *r.At(i); got != want {
				t.Fatalf("after %d pushes: At(%d) = %d, want %d", v+1, i, got, want)
			}
		}
	}
}

// TestRingZeroSize: a window of size zero (or the zero value) holds nothing.
func TestRingZeroSize(t *testing.T) {
	for _, r := range []Ring[int]{New[int](0), New[int](-1), {}} {
		r.Push(1)
		if r.Len() != 0 {
			t.Fatalf("zero-size window holds %d entries", r.Len())
		}
	}
}

// TestRingPushDoesNotAllocate: a full window overwrites in place.
func TestRingPushDoesNotAllocate(t *testing.T) {
	r := New[[4]uint64](8)
	if n := testing.AllocsPerRun(100, func() { r.Push([4]uint64{1}) }); n != 0 {
		t.Fatalf("Push allocates %.1f times", n)
	}
}
