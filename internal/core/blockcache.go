package core

// BlockCache stores basic-block-sized dependence-chain segments (§IV-C),
// tagged by the segment's first PC. Each entry carries a 32-bit mask of
// which instructions in the block belong to H2P dependence chains; masks
// from different control flows are combined by OR (§III-E) unless the
// NoMasks ablation replaces them. A separate tag-only store tracks blocks
// with no chain uops (§IV-B): they deliver nothing but keep the TEA thread
// alive, signalling that chains continue past the empty block.
type BlockCache struct {
	sets    int
	ways    int
	entries []bcEntry

	emptySets    int
	emptyWays    int
	emptyEntries []bcTagEntry

	replace  bool // NoMasks: replace masks instead of OR-ing
	paranoia bool // Config.Paranoia: mask/count tripwires in Update

	lruTick uint32

	// Statistics.
	Lookups   uint64
	Hits      uint64
	EmptyHits uint64
	Updates   uint64
}

type bcEntry struct {
	valid bool
	tag   uint64 // segment start PC
	mask  uint32
	count int // instructions covered by the segment
	lru   uint32
}

type bcTagEntry struct {
	valid bool
	tag   uint64
	count int
	lru   uint32
}

// NewBlockCache builds the block cache from the TEA configuration.
// Set counts must be powers of two (indices are computed by masking).
func NewBlockCache(cfg *Config) BlockCache {
	if cfg.BlockCacheSets&(cfg.BlockCacheSets-1) != 0 || cfg.EmptyTagSets&(cfg.EmptyTagSets-1) != 0 {
		panic("core: block cache set counts must be powers of two")
	}
	return BlockCache{
		sets:         cfg.BlockCacheSets,
		ways:         cfg.BlockCacheWays,
		entries:      make([]bcEntry, cfg.BlockCacheSets*cfg.BlockCacheWays),
		emptySets:    cfg.EmptyTagSets,
		emptyWays:    cfg.EmptyTagWays,
		emptyEntries: make([]bcTagEntry, cfg.EmptyTagSets*cfg.EmptyTagWays),
		replace:      cfg.NoMasks,
	}
}

func (b *BlockCache) set(pc uint64) []bcEntry {
	idx := int(pc>>2) & (b.sets - 1)
	return b.entries[idx*b.ways : (idx+1)*b.ways]
}

func (b *BlockCache) emptySet(pc uint64) []bcTagEntry {
	idx := int(pc>>2) & (b.emptySets - 1)
	return b.emptyEntries[idx*b.emptyWays : (idx+1)*b.emptyWays]
}

// Update installs or merges a walked segment (called after each walk).
func (b *BlockCache) Update(startPC uint64, count int, mask uint32) {
	b.Updates++
	b.lruTick++
	if mask == 0 {
		// Keep any existing data entry (it may carry chain uops from another
		// control flow); otherwise record a tag-only empty block.
		ws := b.set(startPC)
		for i := range ws {
			if ws[i].valid && ws[i].tag == startPC {
				if b.replace {
					ws[i].mask = 0
				}
				return
			}
		}
		es := b.emptySet(startPC)
		victim := &es[0]
		for i := range es {
			e := &es[i]
			if e.valid && e.tag == startPC {
				e.lru = b.lruTick
				if count > e.count {
					e.count = count
				}
				return
			}
			if !e.valid {
				victim = e
			} else if victim.valid && e.lru < victim.lru {
				victim = e
			}
		}
		*victim = bcTagEntry{valid: true, tag: startPC, count: count, lru: b.lruTick}
		return
	}

	ws := b.set(startPC)
	victim := &ws[0]
	for i := range ws {
		e := &ws[i]
		if e.valid && e.tag == startPC {
			old := e.mask
			if b.replace {
				e.mask = mask
			} else {
				e.mask |= mask // combine chains across control flows (§III-E)
			}
			if count > e.count {
				e.count = count
			}
			if b.paranoia {
				if !b.replace && e.mask&old != old {
					panic("core paranoia: Block Cache merge dropped mask bits (masks must grow monotonically between resets)")
				}
				b.checkEntry(e)
			}
			e.lru = b.lruTick
			return
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	*victim = bcEntry{valid: true, tag: startPC, mask: mask, count: count, lru: b.lruTick}
	if b.paranoia {
		b.checkEntry(victim)
	}
}

// checkEntry validates a data entry's mask/count consistency (paranoia):
// a non-empty mask needs instructions to mark, and mask bits index into the
// segment, so none may sit at or beyond count (segment masks are built with
// bit n set only while n < count, and merging takes the max count).
func (b *BlockCache) checkEntry(e *bcEntry) {
	if e.mask == 0 {
		return
	}
	if e.count <= 0 {
		panic("core paranoia: Block Cache entry has chain mask but zero instruction count")
	}
	if e.count < 32 && e.mask>>uint(e.count) != 0 {
		panic("core paranoia: Block Cache mask marks instructions beyond the segment")
	}
}

// Lookup probes both stores for a segment starting at pc.
// hit=false means neither store knows the block (TEA terminates, §IV-G).
func (b *BlockCache) Lookup(pc uint64) (mask uint32, count int, hit bool) {
	b.Lookups++
	b.lruTick++
	ws := b.set(pc)
	for i := range ws {
		if ws[i].valid && ws[i].tag == pc {
			ws[i].lru = b.lruTick
			b.Hits++
			return ws[i].mask, ws[i].count, true
		}
	}
	es := b.emptySet(pc)
	for i := range es {
		if es[i].valid && es[i].tag == pc {
			es[i].lru = b.lruTick
			b.EmptyHits++
			return 0, es[i].count, true
		}
	}
	return 0, 0, false
}

// ResetMasks clears all masks (§IV-C, phase-change adaptation): stale chains
// stop seeding future walks; the tags survive as empty blocks.
func (b *BlockCache) ResetMasks() {
	for i := range b.entries {
		b.entries[i].mask = 0
	}
}
