package pipeline

import (
	"teasim/internal/isa"
	"teasim/internal/telemetry"
)

// Companion is a precomputation engine attached to the core — the TEA
// thread (internal/core) or the Branch Runahead baseline (internal/runahead).
// The pipeline calls the hooks; the companion drives its own fetch/rename in
// Tick and may insert uops into the shared backend and issue early flushes
// through the Core API.
type Companion interface {
	// OnBlock is called when the decoupled BP emits a fetch block.
	OnBlock(b *FetchBlock)
	// OnMainFetch is called for every main-thread instruction fetched.
	OnMainFetch(u *Uop)
	// OnRetire is called in program order for every retired instruction.
	OnRetire(u *Uop)
	// OnFlush is called after a flush; everything younger than seq is gone.
	// branchRenamed reports whether the flushed branch had already been
	// renamed by the main thread — if so the recovered main RAT is exactly
	// the program state at the branch; if not (a partial frontend flush),
	// the companion must recover from its own checkpoint (§IV-F).
	OnFlush(seq uint64, branchRenamed bool)
	// Tick runs once per cycle, after execute and before main rename, so the
	// companion can claim issue slots with priority (paper §IV-D).
	Tick()
	// OverridePrediction lets a companion override the branch predictor for
	// a conditional branch at fetch time — the mechanism prior work (Branch
	// Runahead) uses instead of early flushes. It is called for EVERY
	// conditional branch instance the decoupled BP walks (so the companion
	// can count instances); seq identifies the instance for flush rewinds.
	// ok=false keeps the TAGE prediction. The TEA thread never overrides
	// (§I: it relaxes exactly this constraint).
	OverridePrediction(pc uint64, seq uint64) (taken bool, ok bool)

	// Execution hooks for companion-owned uops in the shared backend.

	// LoadValue supplies the value for a companion load (e.g. the TEA store
	// data cache); ok=false means fall through to committed memory.
	LoadValue(addr uint64, size int) (uint64, bool)
	// OlderStorePending reports whether a companion store older than seq has
	// not executed yet; companion loads wait for it (store→load chains, e.g.
	// arguments passed through the stack, §III-D).
	OlderStorePending(seq uint64) bool
	// StoreExec consumes a companion store (TEA store data cache write).
	StoreExec(addr uint64, data uint64, size int)
	// BranchResolved delivers a companion branch outcome (same timestamp as
	// the main-thread branch); the companion decides whether to early-flush.
	BranchResolved(u *Uop, taken bool, target uint64)
	// UopExecuted is called when a companion uop finishes executing (normal
	// or squashed) — the refcount-freeing point.
	UopExecuted(u *Uop)
	// UopSquashed is called when a companion uop is squashed before it ever
	// issued (no UopExecuted will follow).
	UopSquashed(u *Uop)
	// PrecomputationWrong is called when a main-thread branch detects (via
	// the in-flight branch queue fail-safe) that its precomputed outcome was
	// wrong (§IV-G).
	PrecomputationWrong(pc uint64)

	// OnInterval is called at every telemetry interval boundary so the
	// companion can annotate the sample with its own per-interval metrics
	// (coverage, accuracy, Block Cache hit rate, Fill Buffer occupancy).
	// Only invoked when telemetry is attached; must not mutate companion
	// state that affects simulation.
	OnInterval(iv *telemetry.Interval)

	// Idle-cycle fast-forward contract (see skip.go and DESIGN.md §9).

	// Quiescent reports whether the companion provably cannot change any
	// simulation state at cycle now — its Tick would be a pure no-op apart
	// from per-cycle counters — plus the earliest future cycle at which it
	// can wake on its own (0 = no self-scheduled wake; external events such
	// as retires and flushes wake it implicitly because they end the idle
	// window). A conservative implementation may always return (false, 0),
	// which merely disables skipping while it is attached.
	Quiescent(now uint64) (idle bool, wakeAt uint64)
	// OnSkip tells a quiescent companion that n idle cycles were
	// fast-forwarded in one jump. It must apply exactly the per-cycle
	// bookkeeping (counters only) that n quiescent Ticks would have done.
	OnSkip(n uint64)
}

// NewCompanionUop hands a companion a recycled (zeroed) Uop to fill in.
// The pipeline's own recycle sites (retire, flush, the completion ring) all
// skip companion uops — their owner keeps pointers in its local queues — so
// the companion must hand each one back via RecycleCompanionUop when it
// drops its last reference.
func (c *Core) NewCompanionUop() *Uop { return c.pool.getUop() }

// InstMeta resolves the instruction and its class at pc, serving companion
// fetch from the predecoded template cache the main thread's fetch uses.
// Returns ok=false outside the code segment.
func (c *Core) InstMeta(pc uint64) (in *isa.Inst, cls isa.Class, ok bool) {
	idx, ok := c.dec.Index(pc)
	if !ok {
		return nil, 0, false
	}
	t := &c.dec.Tmpl[idx]
	return t.In, t.Cls, true
}

// RecycleCompanionUop returns a companion-owned uop to the shared pool.
// The caller must have removed it from every structure that could still
// reach it (its frontend queue, in-flight list, the shared RS / completion
// ring). Double-recycles are absorbed by the pool's once-only guard.
func (c *Core) RecycleCompanionUop(u *Uop) { c.pool.putUop(u) }

// nopCompanion is used when no precomputation engine is attached.
type nopCompanion struct{}

func (nopCompanion) OnBlock(*FetchBlock)  {}
func (nopCompanion) OnMainFetch(*Uop)     {}
func (nopCompanion) OnRetire(*Uop)        {}
func (nopCompanion) OnFlush(uint64, bool) {}
func (nopCompanion) Tick()                {}
func (nopCompanion) OverridePrediction(uint64, uint64) (bool, bool) {
	return false, false
}
func (nopCompanion) LoadValue(uint64, int) (uint64, bool) { return 0, false }
func (nopCompanion) OlderStorePending(uint64) bool        { return false }
func (nopCompanion) StoreExec(uint64, uint64, int)        {}
func (nopCompanion) BranchResolved(*Uop, bool, uint64)    {}
func (nopCompanion) UopExecuted(*Uop)                     {}
func (nopCompanion) UopSquashed(*Uop)                     {}
func (nopCompanion) PrecomputationWrong(uint64)           {}
func (nopCompanion) OnInterval(*telemetry.Interval)       {}
func (nopCompanion) Quiescent(uint64) (bool, uint64)      { return true, 0 }
func (nopCompanion) OnSkip(uint64)                        {}
