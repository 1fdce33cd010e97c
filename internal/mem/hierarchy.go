package mem

import (
	"teasim/internal/slab"
	"teasim/tea/spec"
)

// Hierarchy ties the caches and DRAM together: split L1I/L1D, a shared LLC,
// and the DDR4 model, in the geometry of a machine spec's memory section
// (the baseline preset holds Table I's). Accesses compute their completion
// cycle at issue; lines mid-fill act as MSHR entries, so secondary misses
// merge onto the outstanding fill.

// Hierarchy is the full memory system timing model. Its caches and DRAM
// model live inline (the exported pointers point at them), so the whole
// hierarchy is one allocation plus the caches' lines and MSHR files.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	LLC  *Cache
	DRAM *DRAM

	caches [3]Cache
	dram   DRAM
}

// NewHierarchy builds the memory system in three allocations: the
// hierarchy, every cache's lines, and every cache's MSHR file. Every field
// is required; a set count that is not a power of two panics
// (spec.Validate rejects it first).
func NewHierarchy(cfg spec.Memory) *Hierarchy {
	geoms := [3]cacheGeom{
		{"L1I", cfg.L1ISize, cfg.L1IWays, cfg.L1Lat, cfg.L1MSHRs},
		{"L1D", cfg.L1DSize, cfg.L1DWays, cfg.L1Lat, cfg.L1MSHRs},
		{"LLC", cfg.LLCSize, cfg.LLCWays, cfg.LLCLat, cfg.LLCMSHRs},
	}
	nLines, nFills := 0, 0
	for _, g := range geoms {
		nLines += g.sets() * g.ways
		nFills += g.mshrs
	}
	lines, fills := slab.New[cacheLine](nLines), slab.New[uint64](nFills)
	h := &Hierarchy{}
	for i, g := range geoms {
		h.caches[i].init(g, &lines, &fills)
	}
	h.L1I, h.L1D, h.LLC, h.DRAM = &h.caches[0], &h.caches[1], &h.caches[2], &h.dram
	return h
}

// access performs a load-type access through l1 → LLC → DRAM. ok=false means
// the access could not be accepted this cycle (L1 MSHRs full) and must retry.
// A rejected access mutates nothing — no counters, LRU, MSHRs, or DRAM state
// — so a retry loop is free to skip guaranteed-rejected probes (the core's
// MSHR-full load parking relies on this); hit/miss counters count accepted
// accesses once, not per retry attempt.
func (h *Hierarchy) access(l1 *Cache, addr uint64, now uint64, dirty bool) (AccessResult, bool) {
	line := LineOf(addr)
	if l := l1.lookup(line); l != nil {
		l1.Accesses++
		l1.touch(l)
		if dirty {
			l.dirty = true
		}
		ready := now + l1.hitLat
		if l.readyAt > now {
			// Hit on a line still being filled: merge with the fill.
			ready = l.readyAt
		}
		return AccessResult{ReadyAt: ready, HitL1: true}, true
	}

	// L1 miss.
	if !l1.mshrAvailable(now) {
		return AccessResult{}, false
	}
	res := AccessResult{}

	// LLC lookup.
	var fillReady uint64
	if l := h.LLC.lookup(line); l != nil {
		h.LLC.Accesses++
		h.LLC.touch(l)
		fillReady = now + l1.hitLat + h.LLC.hitLat
		if l.readyAt > now && l.readyAt+l1.hitLat > fillReady {
			fillReady = l.readyAt + l1.hitLat
		}
		res.HitLLC = true
	} else {
		if !h.LLC.mshrAvailable(now) {
			return AccessResult{}, false
		}
		h.LLC.Accesses++
		h.LLC.Misses++
		dramDone := h.DRAM.Access(now+l1.hitLat+h.LLC.hitLat, line, false)
		fillReady = dramDone
		res.DRAM = true
		h.installLLC(line, dramDone, now)
		h.LLC.noteFill(dramDone)
	}
	l1.Accesses++
	l1.Misses++

	h.installL1(l1, line, fillReady, now, dirty)
	l1.noteFill(fillReady)
	res.ReadyAt = fillReady
	return res, true
}

// installL1 places line into l1, writing back a dirty victim.
func (h *Hierarchy) installL1(l1 *Cache, line uint64, readyAt uint64, now uint64, dirty bool) {
	v := l1.victim(line, now)
	if v.valid && v.dirty {
		h.writeback(v.tag, now)
	}
	*v = cacheLine{valid: true, dirty: dirty, tag: line, readyAt: readyAt}
	l1.touch(v)
}

// installLLC places line into the LLC, writing back a dirty victim to DRAM.
func (h *Hierarchy) installLLC(line uint64, readyAt uint64, now uint64) {
	v := h.LLC.victim(line, now)
	if v.valid && v.dirty {
		h.DRAM.Access(now, v.tag, true)
	}
	*v = cacheLine{valid: true, tag: line, readyAt: readyAt}
	h.LLC.touch(v)
}

// writeback moves a dirty L1 line down to the LLC (allocating if absent).
func (h *Hierarchy) writeback(line uint64, now uint64) {
	if l := h.LLC.lookup(line); l != nil {
		l.dirty = true
		h.LLC.touch(l)
		return
	}
	// Non-inclusive victim fill: install without a timing penalty for the
	// requester (writeback bandwidth is not the bottleneck we study).
	v := h.LLC.victim(line, now)
	if v.valid && v.dirty {
		h.DRAM.Access(now, v.tag, true)
	}
	*v = cacheLine{valid: true, dirty: true, tag: line, readyAt: now}
	h.LLC.touch(v)
}

// NextEvent returns the earliest cycle strictly after now at which an
// outstanding fill anywhere in the hierarchy (L1I, L1D, or LLC) completes,
// or 0 when the memory system is quiet. DRAM timing needs no separate
// entry: the compute-at-issue model folds DRAM completion into the fill
// readyAt recorded by noteFill (DRAM.NextEvent exposes the raw channel
// horizon for diagnostics). The core's idle-cycle skipper uses this as a
// conservative wake source.
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	next := h.L1I.NextFill(now)
	if d := h.L1D.NextFill(now); d != 0 && (next == 0 || d < next) {
		next = d
	}
	if l := h.LLC.NextFill(now); l != 0 && (next == 0 || l < next) {
		next = l
	}
	return next
}

// Load performs a data load. ok=false means retry next cycle (MSHRs full).
func (h *Hierarchy) Load(addr uint64, now uint64) (AccessResult, bool) {
	return h.access(h.L1D, addr, now, false)
}

// LoadWouldAccept reports whether a data load of addr issued at cycle now
// would be accepted (L1D hit, fill merge, or trackable miss) without
// performing the access — no counter, LRU, MSHR, or DRAM mutation. It
// replicates access()'s rejection conditions exactly: false means Load
// would return ok=false for full MSHRs. The answer can only flip to true
// when an outstanding fill completes (see NextEvent), so the core's idle
// skipper can sleep a blocked load until then.
func (h *Hierarchy) LoadWouldAccept(addr uint64, now uint64) bool {
	line := LineOf(addr)
	if h.L1D.lookup(line) != nil {
		return true // hit, or merge with the line's outstanding fill
	}
	if !h.L1D.mshrFree(now) {
		return false
	}
	if h.LLC.lookup(line) != nil {
		return true
	}
	return h.LLC.mshrFree(now)
}

// Fetch performs an instruction fetch for the line containing addr.
func (h *Hierarchy) Fetch(addr uint64, now uint64) (AccessResult, bool) {
	return h.access(h.L1I, addr, now, false)
}

// StoreCommit writes a retiring store into the L1D (write-allocate,
// writeback). ok=false means retry (MSHRs full). The returned ReadyAt is
// when the store's line is present (the store-queue entry frees then).
func (h *Hierarchy) StoreCommit(addr uint64, now uint64) (AccessResult, bool) {
	return h.access(h.L1D, addr, now, true)
}
