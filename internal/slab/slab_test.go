package slab

import (
	"slices"
	"testing"
)

// TestAppendPastCapacityReallocates is the aliasing guard: a carved slice
// that outgrows its capacity moves to a fresh array, and the piece carved
// after it keeps its elements.
func TestAppendPastCapacityReallocates(t *testing.T) {
	s := New[int](7)
	a := s.Empty(3)
	b := s.Take(4)
	for i := range b {
		b[i] = 10 + i
	}
	a = append(a, 1, 2, 3)
	base := &a[0]
	a = append(a, 4) // one past the carved capacity
	if &a[0] == base {
		t.Fatal("an append past the carved capacity wrote in place")
	}
	if want := []int{1, 2, 3, 4}; !slices.Equal(a, want) {
		t.Fatalf("grown piece = %v, want %v", a, want)
	}
	if want := []int{10, 11, 12, 13}; !slices.Equal(b, want) {
		t.Fatalf("next piece = %v after its neighbour grew, want %v", b, want)
	}
}

// TestPieces checks the carving arithmetic: lengths, capacities, zeroed
// elements, and that a slab hands out exactly its size.
func TestPieces(t *testing.T) {
	s := New[uint64](10)
	a := s.Take(4)
	b := s.Empty(5)
	if len(a) != 4 || cap(a) != 4 || len(b) != 0 || cap(b) != 5 {
		t.Fatalf("len/cap a %d/%d b %d/%d", len(a), cap(a), len(b), cap(b))
	}
	for _, v := range a {
		if v != 0 {
			t.Fatal("a carved piece is not zeroed")
		}
	}
	s.Take(1)
	defer func() {
		if recover() == nil {
			t.Error("taking past the end of the slab did not panic")
		}
	}()
	s.Take(1)
}

// TestZeroSlab: a slab of nothing hands out empty pieces.
func TestZeroSlab(t *testing.T) {
	var s Slab[byte]
	if p := s.Empty(0); len(p) != 0 || cap(p) != 0 {
		t.Fatalf("piece of an empty slab: len %d cap %d", len(p), cap(p))
	}
}
