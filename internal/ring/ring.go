// Package ring provides a fixed-size window over the most recent entries
// pushed into it, for the companions' retired-instruction windows. Pushing
// into a full window overwrites its oldest entry in place, so a window
// never allocates after New.
package ring

// Ring holds up to a fixed number of the most recent entries. The zero
// value is a window of size zero, which drops every push.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int
}

// New returns an empty window of the given size (none when size <= 0).
func New[T any](size int) Ring[T] {
	if size <= 0 {
		return Ring[T]{}
	}
	return Ring[T]{buf: make([]T, size)}
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v, overwriting the oldest entry when the window is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		*r.At(r.n) = v
		r.n++
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// At returns the i-th oldest entry, 0 <= i < Len().
func (r *Ring[T]) At(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}
