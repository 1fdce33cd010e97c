package core

// StoreCache is the TEA thread's store data cache (§IV-E): TEA stores must
// not modify architectural state, so they write a small buffer holding the
// last N half-lines (32B) touched by TEA stores. TEA loads consult it before
// the D-cache. Byte-granular valid bits make partially written half-lines
// safe: a load that is not fully covered falls through to memory (and may
// therefore observe stale data — one of the accuracy limits the paper's
// fail-safes catch).
type StoreCache struct {
	lines   []scLine
	lruTick uint32

	Writes   uint64
	Hits     uint64
	Partials uint64 // loads that overlapped but were not fully covered
}

const halfLine = 32

type scLine struct {
	valid bool
	addr  uint64 // 32B-aligned
	data  [halfLine]byte
	mask  uint32 // per-byte valid bits
	lru   uint32
}

// NewStoreCache returns a cache of n half-lines.
func NewStoreCache(n int) StoreCache {
	return StoreCache{lines: make([]scLine, n)}
}

// Reset discards all buffered store data (thread restart).
func (s *StoreCache) Reset() {
	for i := range s.lines {
		s.lines[i] = scLine{}
	}
}

func (s *StoreCache) line(addr uint64, alloc bool) *scLine {
	base := addr &^ (halfLine - 1)
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].addr == base {
			return &s.lines[i]
		}
	}
	if !alloc {
		return nil
	}
	victim := &s.lines[0]
	for i := range s.lines {
		l := &s.lines[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	*victim = scLine{valid: true, addr: base}
	return victim
}

// Write buffers size bytes of v at addr. Writes crossing a half-line
// boundary are split. The line is resolved once per half-line touched, not
// per byte — byte runs within a half-line hit the same line by definition.
func (s *StoreCache) Write(addr uint64, v uint64, size int) {
	s.Writes++
	s.lruTick++
	base := addr &^ (halfLine - 1)
	l := s.line(addr, true)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if b := a &^ (halfLine - 1); b != base {
			base = b
			l = s.line(a, true)
		}
		off := a & (halfLine - 1)
		l.data[off] = byte(v >> (8 * i))
		l.mask |= 1 << off
		l.lru = s.lruTick
	}
}

// Read returns size bytes at addr if every byte is covered by buffered
// store data; ok=false sends the load to the cache hierarchy instead.
func (s *StoreCache) Read(addr uint64, size int) (v uint64, ok bool) {
	s.lruTick++
	covered := 0
	// base starts unaligned so the first byte always resolves its line.
	base, l := uint64(1), (*scLine)(nil)
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if b := a &^ (halfLine - 1); b != base {
			base = b
			l = s.line(a, false)
		}
		if l == nil {
			continue
		}
		off := a & (halfLine - 1)
		if l.mask&(1<<off) == 0 {
			continue
		}
		v |= uint64(l.data[off]) << (8 * i)
		l.lru = s.lruTick
		covered++
	}
	if covered == size {
		s.Hits++
		return v, true
	}
	if covered > 0 {
		s.Partials++
	}
	return 0, false
}
