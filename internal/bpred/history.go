// Package bpred implements the decoupled branch prediction stack used by the
// baseline core (Table I of the paper): a TAGE-SC-L-class conditional
// predictor (TAGE + loop predictor + statistical corrector), an ITTAGE-style
// history-based indirect predictor, a 4k-entry BTB, and a return address
// stack — all with per-branch checkpointing so any flush (normal, early TEA,
// or memory-ordering) restores speculative predictor state exactly.
package bpred

// historyBits is the size of the circular global-history buffer. It must
// exceed the longest folded history length plus the number of pushes still
// in flight, because rewind recovery re-reads, for every push it undoes,
// the bit origLen behind it. Half the buffer goes to the fold window: the
// machine spec caps TAGE history lengths at MaxFoldLen (the presets' longest
// is 1270), which leaves the other half for the in-flight window.
const historyBits = 4096

// MaxFoldLen is the longest folded history the buffer can hold beside the
// in-flight window (see historyBits).
const MaxFoldLen = historyBits / 2

// folded is the geometry of one incrementally maintained folded
// (compressed) history register, as used by TAGE (Seznec): a history of
// origLen bits folded by XOR into compLen bits. The register's value lives
// in History.comps, apart from its constants, so that a snapshot and a
// restore copy one fixed array.
type folded struct {
	origLen uint32
	compLen uint32 // 1..31
	outBit  uint32 // 1 << (origLen % compLen): where the outgoing bit folds in
	mask    uint32 // 1<<compLen - 1
}

func newFolded(origLen, compLen uint32) folded {
	if compLen == 0 || compLen > 31 {
		panic("bpred: folded width outside 1..31 bits")
	}
	return folded{compLen: compLen, origLen: origLen,
		outBit: 1 << (origLen % compLen), mask: 1<<compLen - 1}
}

// update returns comp with newBit shifted in and oldBit (the bit that just
// moved past origLen in the global history) removed. The precomputed
// outBit places oldBit with an AND instead of a shift, and compLen is below
// 32, so masking its shift count with 31 changes nothing; it lets the
// compiler drop the guard Go puts on variable shifts of 32 or more.
func (f *folded) update(comp, newBit, oldBit uint32) uint32 {
	comp = comp<<1 | newBit
	comp ^= f.outBit & -oldBit
	comp ^= comp >> (f.compLen & 31)
	return comp & f.mask
}

// unupdate is the exact inverse of update: given the same newBit/oldBit pair,
// it recovers the pre-update comp. Derivation: update computes
// u = (comp<<1)|newBit, then t = u ^ oldBit<<(origLen%compLen), then folds
// the overflow bit (t>>compLen, which equals comp's old top bit) into bit 0
// and masks. All three steps are invertible because newBit and oldBit are
// known at rewind time (they are still in the circular history buffer).
func (f *folded) unupdate(comp, newBit, oldBit uint32) uint32 {
	x := comp ^ f.outBit&-oldBit // = (u & mask) ^ top
	top := x&1 ^ newBit          // u's bit 0 is newBit
	return (x ^ top | top<<(f.compLen&31)) >> 1
}

// maxFolds bounds the number of folded views so the folds and their
// snapshots are fixed, allocation-free arrays (48 covers TAGE 12×3 +
// ITTAGE 2×2 + SC 3).
const maxFolds = 48

// History is the speculative global branch history: a circular bit buffer
// with registered folded views, plus a path-history register. All speculative
// predictor state that must be rewound on a flush lives here (the RAS and
// loop predictor keep their own small checkpoints).
type History struct {
	bits [historyBits / 64]uint64
	ptr  uint32 // index where the NEXT bit will be written
	path uint32 // path history (low PC bits of taken branches)

	// pushes counts every Push ever applied (monotone except during rewind).
	// A checkpoint is just this counter plus the 4-byte path register:
	// Restore unwinds pushes one by one instead of copying the folded comps
	// back. The circular bit buffer itself is the undo log: every pushed
	// bit, and every bit that fell out of a fold's origLen window, is still
	// in the buffer when the rewind runs (historyBits exceeds the longest
	// fold plus the in-flight window), so unpush can re-derive both XOR
	// operands.
	pushes uint64

	// snaps is a ring of periodic full-fold snapshots, taken every
	// snapPeriod pushes. They bound Restore's cost: a rewind over a long
	// in-flight distance copies the newest snapshot at or before the
	// checkpoint and replays at most snapPeriod-1 pushes forward from the
	// bit buffer, instead of unwinding the whole distance push by push.
	// Snapshots younger than a restored checkpoint are dropped at Restore
	// (the re-executed path will rewrite those push counts with different
	// bits).
	snaps    [snapRing]histSnap
	snapHead int // ring index of the next snapshot write
	snapLen  int // live snapshots (newest at snapHead-1)

	// comps[i] is the value of the folded view folds[i]; the first nFolds
	// entries of each are registered.
	comps  [maxFolds]uint32
	folds  [maxFolds]folded
	nFolds int
}

// snapPeriod is the push distance between fold snapshots; snapRing sizes the
// ring so coverage (snapPeriod*snapRing pushes) exceeds the in-flight branch
// bound. Both must be powers of two.
const (
	snapPeriod = 32
	snapRing   = 64
)

// histSnap is one periodic snapshot: the full fold state just after the
// push numbered pushes.
type histSnap struct {
	pushes uint64
	ptr    uint32
	comps  [maxFolds]uint32
}

// RegisterFold adds a folded view of the most recent origLen history bits
// compressed to compLen bits and returns its handle.
func (h *History) RegisterFold(origLen, compLen uint32) int {
	if h.nFolds >= maxFolds {
		panic("bpred: too many folded histories; raise maxFolds")
	}
	h.folds[h.nFolds] = newFolded(origLen, compLen)
	h.nFolds++
	return h.nFolds - 1
}

// Fold returns the current folded value of the registered view.
func (h *History) Fold(i int) uint32 { return h.comps[i] }

// Path returns the path-history register.
func (h *History) Path() uint32 { return h.path }

// bitAt returns the history bit at distance i behind ptr (0 = the bit
// pushed just before ptr). pos is in range already; masking the word index
// as well lets the compiler drop its bounds check.
func (h *History) bitAt(ptr, i uint32) uint32 {
	pos := (ptr - 1 - i) & (historyBits - 1)
	return uint32(h.bits[pos/64&(historyBits/64-1)]>>(pos%64)) & 1
}

func (h *History) setBit(pos, b uint32) {
	word, off := pos/64&(historyBits/64-1), pos%64
	h.bits[word] = (h.bits[word] &^ (1 << off)) | (uint64(b) << off)
}

// Push records one speculative history bit and updates all folded views.
func (h *History) Push(bit bool) {
	var nb uint32
	if bit {
		nb = 1
	}
	h.setBit(h.ptr, nb)
	h.foldIn(nb)
	if h.pushes&(snapPeriod-1) == 0 {
		h.snapshot()
	}
}

// replayPush re-applies one already-recorded push: the bit is read back from
// the circular buffer (Push wrote it there and nothing has overwritten it
// within the buffer's margin) instead of being provided by the caller.
func (h *History) replayPush() {
	h.foldIn(uint32(h.bits[h.ptr/64&(historyBits/64-1)]>>(h.ptr%64)) & 1)
}

// foldIn advances past the bit at ptr, which is nb, and shifts it into
// every folded view.
func (h *History) foldIn(nb uint32) {
	ptr := (h.ptr + 1) & (historyBits - 1)
	h.ptr = ptr
	h.pushes++
	folds := h.folds[:h.nFolds]
	comps := h.comps[:len(folds)]
	// Folds registered back to back share origLen (TAGE makes three views of
	// each table's history, ITTAGE two); fetch the outgoing bit once per run.
	lastLen, ob := ^uint32(0), uint32(0)
	for i := range folds {
		f := &folds[i]
		if f.origLen != lastLen {
			lastLen = f.origLen
			ob = h.bitAt(ptr, lastLen)
		}
		comps[i] = f.update(comps[i], nb, ob)
	}
}

// snapshot records the current fold state into the ring.
func (h *History) snapshot() {
	s := &h.snaps[h.snapHead]
	h.snapHead = (h.snapHead + 1) & (snapRing - 1)
	if h.snapLen < snapRing {
		h.snapLen++
	}
	s.pushes, s.ptr = h.pushes, h.ptr
	s.comps = h.comps
}

// dropSnapsAfter discards snapshots taken after push count p. A restore to p
// invalidates them: the path re-executed from there will reuse the same push
// counts with different history bits.
func (h *History) dropSnapsAfter(p uint64) {
	for h.snapLen > 0 {
		newest := (h.snapHead - 1 + snapRing) & (snapRing - 1)
		if h.snaps[newest].pushes <= p {
			return
		}
		h.snapHead = newest
		h.snapLen--
	}
}

// unpush exactly inverts the most recent Push. Both XOR operands of each
// fold's update are re-read from the circular buffer at the same distances
// the push used (ptr has not moved since, and at most historyBits-1 newer
// bits could have overwritten old positions — far beyond any fold's window),
// so unupdate recovers the pre-push comps bit for bit. The pushed bit itself
// is left in the buffer; it is unreachable until overwritten by a new Push
// at the same position.
func (h *History) unpush() {
	ptr := h.ptr
	nb := h.bitAt(ptr, 0)
	folds := h.folds[:h.nFolds]
	comps := h.comps[:len(folds)]
	lastLen, ob := ^uint32(0), uint32(0)
	for i := range folds {
		f := &folds[i]
		if f.origLen != lastLen {
			lastLen = f.origLen
			ob = h.bitAt(ptr, lastLen)
		}
		comps[i] = f.unupdate(comps[i], nb, ob)
	}
	h.ptr = (ptr - 1) & (historyBits - 1)
	h.pushes--
}

// PushPath mixes low bits of a taken-branch PC into the path history.
func (h *History) PushPath(pc uint64) {
	h.path = (h.path<<1 | uint32(pc>>2)&1) & 0xffff
}

// Checkpoint is a snapshot of the speculative history state taken just
// before a branch's own update. It is small enough to store per in-flight
// branch (the paper's in-flight branch queue plays the same role) and is a
// plain value: no heap allocation per branch. It carries only the buffer
// pointer, the path register and the push counter; Restore recovers the
// folds by unwinding pushes through the invertible fold update.
type Checkpoint struct {
	ptr    uint32
	path   uint32
	pushes uint64
}

// Save captures the current history state. The checkpoint stays valid while
// at most historyBits-MaxFoldLen bits have been pushed past it.
func (h *History) Save() Checkpoint {
	var c Checkpoint
	h.SaveInto(&c)
	return c
}

// SaveInto is Save writing into caller-owned storage on the per-branch hot
// path.
func (h *History) SaveInto(c *Checkpoint) {
	c.ptr, c.path, c.pushes = h.ptr, h.path, h.pushes
}

// Restore rewinds the history to a previously saved checkpoint: from the
// nearest periodic snapshot at or before it (copy + at most snapPeriod-1
// forward replays from the bit buffer) when the distance is long, and by
// unwinding push by push when it is short or no snapshot covers it; cost is
// bounded either way.
func (h *History) Restore(c *Checkpoint) {
	h.dropSnapsAfter(c.pushes)
	if h.pushes-c.pushes > snapPeriod && h.snapLen > 0 {
		s := &h.snaps[(h.snapHead-1+snapRing)&(snapRing-1)]
		h.ptr, h.pushes = s.ptr, s.pushes
		h.comps = s.comps
		for h.pushes < c.pushes {
			h.replayPush()
		}
	}
	for h.pushes > c.pushes {
		h.unpush()
	}
	h.ptr = c.ptr // always equal after the unwind; cheap belt-and-braces
	h.path = c.path
}

// NumFolds returns the number of registered folded views (for tests).
func (h *History) NumFolds() int { return h.nFolds }
