package pipeline

// queue is a FIFO over a reusable backing slice: popping advances a head
// index and the buffer is compacted in place once half-consumed, so steady-
// state operation performs no allocation (unlike the `q = q[1:]` pattern,
// which abandons a backing array every cycle around).
type queue[T any] struct {
	buf  []T
	head int
}

// queueLen is the buffer a queue needs to never reallocate while at most
// bound elements are queued at once: popFront compacts once head passes 64
// and half the buffer, so the buffer spans at most max(bound+64,
// 2*bound-1) elements.
func queueLen(bound int) int { return 2*bound + 65 }

// newQueue returns an empty queue over buf's capacity.
func newQueue[T any](buf []T) queue[T] { return queue[T]{buf: buf[:0]} }

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) at(i int) T { return q.buf[q.head+i] }

func (q *queue[T]) front() T { return q.buf[q.head] }

func (q *queue[T]) push(v T) { q.buf = append(q.buf, v) }

func (q *queue[T]) popFront() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release the reference for reuse safety
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clearTail(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// truncFrom drops elements at logical index >= i (tail truncation).
func (q *queue[T]) truncFrom(i int) {
	clearTail(q.buf[q.head+i:])
	q.buf = q.buf[:q.head+i]
}

// clear empties the queue, retaining capacity.
func (q *queue[T]) clear() {
	clearTail(q.buf[q.head:])
	q.buf = q.buf[:0]
	q.head = 0
}

func clearTail[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}
