package workloads

import (
	"sync"

	"teasim/internal/isa"
)

// sharedCap bounds the Data bytes the process-wide program cache retains.
// The scale-1 suite is about 13 MB; a program that would push the total
// past the cap is built per call instead (see Shared).
const sharedCap = 64 << 20

// shared is the process-wide program cache behind Shared.
var shared = newProgCache(sharedCap)

// Shared returns the program of workload w at the given scale, built at
// most once per process while the cache has room for it.
//
// The returned program is shared read-only between every caller in the
// process: nothing may write to its Code, Data or Labels. The simulator
// honours this because code is immutable (self-modifying stores are
// asserted absent) and each core copies Data into a fresh memory image.
// A program that does not fit under the cache's fixed byte cap is built
// afresh on every call, exactly as w.Build would.
func (w Workload) Shared(scale int) *isa.Program {
	return shared.get(w, scale)
}

type progKey struct {
	name  string
	scale int
}

// progEntry builds one (name, scale) program once. prog stays nil when the
// built program did not fit under the cap.
type progEntry struct {
	once sync.Once
	prog *isa.Program
}

// progCache is a build-once cache of programs bounded by the total size of
// their Data segments. Entries are never evicted.
type progCache struct {
	cap int

	mu      sync.Mutex
	bytes   int // Data bytes held by cached programs
	entries map[progKey]*progEntry
}

func newProgCache(cap int) *progCache {
	return &progCache{cap: cap, entries: make(map[progKey]*progEntry)}
}

func (c *progCache) get(w Workload, scale int) *isa.Program {
	key := progKey{w.Name, scale}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if c.bytes >= c.cap {
			c.mu.Unlock()
			return w.Build(scale)
		}
		e = &progEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	var built *isa.Program
	e.once.Do(func() {
		built = w.Build(scale)
		c.mu.Lock()
		defer c.mu.Unlock()
		if size := dataBytes(built); c.bytes+size <= c.cap {
			c.bytes += size
			e.prog = built
		} else {
			// Forget the key so the map stays bounded too; later calls
			// find no entry and build per call.
			delete(c.entries, key)
		}
	})
	switch {
	case built != nil:
		return built // this call built it, cached or not
	case e.prog != nil:
		return e.prog
	default:
		return w.Build(scale) // waited on a build that did not fit
	}
}

func dataBytes(p *isa.Program) int {
	n := 0
	for _, seg := range p.Data {
		n += len(seg.Bytes)
	}
	return n
}
