package mem

import "teasim/internal/slab"

// Timing cache model: set-associative, LRU, writeback/write-allocate, with
// MSHR-style miss tracking. The model is "compute at issue": an access
// immediately computes its completion cycle by walking the hierarchy, and a
// line being filled carries its fill-completion cycle, so a later access to
// the same line before the fill completes merges with the outstanding miss
// (secondary miss) exactly like an MSHR would.

// LineBytes is the cache line size used throughout the hierarchy (Table I).
const LineBytes = 64

// LineOf returns the line-aligned address containing addr.
func LineOf(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

type cacheLine struct {
	valid   bool
	dirty   bool
	tag     uint64
	readyAt uint64 // fill completion cycle; line usable only after this
	lru     uint32
}

// Cache is one level of the hierarchy.
type Cache struct {
	name    string
	sets    int
	ways    int
	hitLat  uint64
	lines   []cacheLine // sets*ways, way-major within a set
	mshrCap int

	// Statistics.
	Accesses uint64
	Misses   uint64

	lruTick uint32
	// fills holds completion cycles of outstanding misses (the MSHR file);
	// entries are pruned lazily. A miss is noted only after mshrAvailable
	// pruned the file below mshrCap, so it never outgrows its capacity.
	fills []uint64
}

// cacheGeom is one cache level's geometry.
type cacheGeom struct {
	name      string
	sizeBytes int
	ways      int
	hitLat    uint64
	mshrs     int
}

// sets returns the geometry's set count, sizeBytes/ways/LineBytes, which
// must be a positive power of two.
func (g cacheGeom) sets() int {
	sets := g.sizeBytes / g.ways / LineBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: cache set count must be a positive power of two: " + g.name)
	}
	return sets
}

// init builds the cache in place, taking its lines and its MSHR file from
// the hierarchy's slabs.
func (c *Cache) init(g cacheGeom, lines *slab.Slab[cacheLine], fills *slab.Slab[uint64]) {
	sets := g.sets()
	*c = Cache{
		name:    g.name,
		sets:    sets,
		ways:    g.ways,
		hitLat:  g.hitLat,
		lines:   lines.Take(sets * g.ways),
		mshrCap: g.mshrs,
		fills:   fills.Empty(g.mshrs),
	}
}

func (c *Cache) set(line uint64) []cacheLine {
	idx := int(line/LineBytes) & (c.sets - 1)
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// mshrAvailable prunes completed fills and reports whether a new miss can
// be tracked at cycle now.
func (c *Cache) mshrAvailable(now uint64) bool {
	live := c.fills[:0]
	for _, f := range c.fills {
		if f > now {
			live = append(live, f)
		}
	}
	c.fills = live
	return len(c.fills) < c.mshrCap
}

// noteFill records an outstanding miss completing at readyAt.
func (c *Cache) noteFill(readyAt uint64) { c.fills = append(c.fills, readyAt) }

// mshrFree reports whether a new miss could be tracked at cycle now: the
// read-only counterpart of mshrAvailable (same predicate, no pruning).
func (c *Cache) mshrFree(now uint64) bool {
	n := 0
	for _, f := range c.fills {
		if f > now {
			n++
		}
	}
	return n < c.mshrCap
}

// NextFill returns the completion cycle of the earliest fill still
// outstanding strictly after now, or 0 when none is in flight. Read-only:
// the MSHR file is pruned lazily by mshrAvailable, not here, so probing
// for the next event never perturbs cache state.
func (c *Cache) NextFill(now uint64) uint64 {
	var next uint64
	for _, f := range c.fills {
		if f > now && (next == 0 || f < next) {
			next = f
		}
	}
	return next
}

// lookup finds the way holding line, or nil.
func (c *Cache) lookup(line uint64) *cacheLine {
	ws := c.set(line)
	for i := range ws {
		if ws[i].valid && ws[i].tag == line {
			return &ws[i]
		}
	}
	return nil
}

// victim picks a way for replacement, preferring invalid ways, then the
// least recently used line that is not mid-fill.
func (c *Cache) victim(line uint64, now uint64) *cacheLine {
	ws := c.set(line)
	var best *cacheLine
	for i := range ws {
		l := &ws[i]
		if !l.valid {
			return l
		}
		if l.readyAt > now {
			continue // don't evict a line still being filled
		}
		if best == nil || l.lru < best.lru {
			best = l
		}
	}
	if best == nil {
		// Every way is mid-fill; fall back to raw LRU (rare; models a
		// stalled fill buffer rather than deadlocking).
		for i := range ws {
			l := &ws[i]
			if best == nil || l.lru < best.lru {
				best = l
			}
		}
	}
	return best
}

func (c *Cache) touch(l *cacheLine) {
	c.lruTick++
	l.lru = c.lruTick
}

// AccessResult describes one hierarchy access.
type AccessResult struct {
	ReadyAt uint64 // cycle the data is available to the requester
	HitL1   bool
	HitLLC  bool
	DRAM    bool
}

// Probe reports whether line is present and fully filled at cycle now,
// without touching LRU or stats (used by tests and diagnostics).
func (c *Cache) Probe(line uint64, now uint64) bool {
	l := c.lookup(line)
	return l != nil && l.readyAt <= now
}
