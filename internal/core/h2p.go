package core

// H2PTable identifies hard-to-predict branches (§IV-B): a set-associative
// table of 3-bit saturating misprediction counters, indexed by branch PC.
// An entry is created (counter=1) on a misprediction and incremented on
// further mispredictions; all counters decay by one every H2PDecayPeriod
// retired instructions so only branches above ~0.02 MPKI stay marked.
// A branch is H2P while its counter exceeds the threshold.
type H2PTable struct {
	sets      int
	ways      int
	max       uint8
	threshold uint8
	entries   []h2pEntry
	lruTick   uint32
	paranoia  bool // Config.Paranoia: counter-saturation tripwire
}

type h2pEntry struct {
	valid bool
	tag   uint64
	ctr   uint8
	lru   uint32
}

// NewH2PTable builds a table of sets × ways counters saturating at ctrMax;
// a branch is H2P while its counter exceeds threshold. sets must be a power
// of two.
func NewH2PTable(sets, ways int, ctrMax, threshold uint8) H2PTable {
	return H2PTable{
		sets:      sets,
		ways:      ways,
		max:       ctrMax,
		threshold: threshold,
		entries:   make([]h2pEntry, sets*ways),
	}
}

func (t *H2PTable) set(pc uint64) []h2pEntry {
	idx := int(pc>>2) & (t.sets - 1)
	return t.entries[idx*t.ways : (idx+1)*t.ways]
}

func (t *H2PTable) find(pc uint64) *h2pEntry {
	ws := t.set(pc)
	for i := range ws {
		if ws[i].valid && ws[i].tag == pc {
			return &ws[i]
		}
	}
	return nil
}

// RecordMispredict notes a misprediction of the branch at pc, creating or
// bumping its counter.
func (t *H2PTable) RecordMispredict(pc uint64) {
	t.lruTick++
	if e := t.find(pc); e != nil {
		if e.ctr < t.max {
			e.ctr++
		}
		if t.paranoia && e.ctr > t.max {
			panic("core paranoia: H2P counter above saturation point")
		}
		e.lru = t.lruTick
		return
	}
	// Allocate: prefer invalid entries, then zero-counter, then LRU.
	ws := t.set(pc)
	victim := &ws[0]
	for i := range ws {
		e := &ws[i]
		if !e.valid {
			victim = e
			break
		}
		if e.ctr == 0 && (victim.ctr != 0 || e.lru < victim.lru) {
			victim = e
		} else if victim.ctr != 0 && e.lru < victim.lru {
			victim = e
		}
	}
	*victim = h2pEntry{valid: true, tag: pc, ctr: 1, lru: t.lruTick}
}

// IsH2P reports whether the branch at pc is currently hard-to-predict.
func (t *H2PTable) IsH2P(pc uint64) bool {
	e := t.find(pc)
	return e != nil && e.ctr > t.threshold
}

// Decay decrements every counter by one (periodic, §IV-B).
func (t *H2PTable) Decay() {
	for i := range t.entries {
		if t.entries[i].ctr > 0 {
			t.entries[i].ctr--
		}
	}
}

// Count returns the number of branches currently above the H2P threshold
// (diagnostics / the h2pexplorer example).
func (t *H2PTable) Count() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].ctr > t.threshold {
			n++
		}
	}
	return n
}
