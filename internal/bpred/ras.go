package bpred

// RAS: speculative return address stack with top-of-stack checkpointing.
// Each branch checkpoint saves the stack pointer and the entry it points at,
// which repairs both push-overwrites and pops on a flush (standard
// TOSA/TOSV recovery).

// RAS is the return address stack, built by newRAS.
type RAS struct {
	stack []uint64
	top   uint32 // index of the current top entry
}

// newRAS builds a stack with the given depth.
func newRAS(entries int) RAS { return RAS{stack: make([]uint64, entries)} }

// Push records a call's return address.
func (r *RAS) Push(ret uint64) {
	r.top = (r.top + 1) % uint32(len(r.stack))
	r.stack[r.top] = ret
}

// Pop predicts a return target and unwinds the stack.
func (r *RAS) Pop() uint64 {
	v := r.stack[r.top]
	n := uint32(len(r.stack))
	r.top = (r.top - 1 + n) % n
	return v
}

// Peek returns the current predicted return target without popping.
func (r *RAS) Peek() uint64 {
	return r.stack[r.top]
}

// RASCheckpoint repairs the stack after a flush.
type RASCheckpoint struct {
	top uint32
	val uint64
}

// Save captures the recovery state (pointer + top value).
func (r *RAS) Save() RASCheckpoint {
	return RASCheckpoint{top: r.top, val: r.stack[r.top]}
}

// Restore rewinds to the checkpoint.
func (r *RAS) Restore(c RASCheckpoint) {
	r.top = c.top
	r.stack[r.top] = c.val
}
