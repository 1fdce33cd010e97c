// Package slab carves many slices of one element type from a single
// allocation, so a constructor that sizes a dozen lists pays one
// allocation per element type instead of one per list.
//
// Every carved slice has its capacity clipped at its own end (s[a:a:b]):
// an append past that capacity reallocates the slice instead of writing
// over the next piece. A slab is never shared: each constructor carves its
// own, and the pieces die with the value that holds them.
package slab

// Slab is the unclaimed rest of one backing array.
type Slab[T any] struct{ buf []T }

// New allocates a slab of n zeroed elements: the total of the pieces it
// will hand out.
func New[T any](n int) Slab[T] { return Slab[T]{buf: make([]T, n)} }

// Take returns the next n elements as a slice of length and capacity n.
// It panics if fewer than n elements are left.
func (s *Slab[T]) Take(n int) []T {
	p := s.buf[:n:n]
	s.buf = s.buf[n:]
	return p
}

// Empty returns the next n elements as an empty slice of capacity n.
func (s *Slab[T]) Empty(n int) []T { return s.Take(n)[:0] }
