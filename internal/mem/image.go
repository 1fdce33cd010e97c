// Package mem provides the simulated memory system: a sparse flat memory
// image shared by the functional emulator and the timing model, plus the
// cache hierarchy and DRAM timing model used by the pipeline.
package mem

import (
	"encoding/binary"

	"teasim/internal/isa"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Image is a sparse, flat, little-endian 64-bit memory image. Pages are
// allocated on first touch; untouched memory reads as zero.
//
// Image is not safe for concurrent use; the simulator is single-threaded by
// design (cycle-by-cycle determinism).
type Image struct {
	pages map[uint64]*[pageSize]byte
	// spare holds zeroed pages carved ahead of their first touch: a page
	// first touched after load takes the next one, and an empty spare is
	// refilled with lateChunk pages at once.
	spare [][pageSize]byte
}

// lateChunk is how many pages an image carves at once for pages first
// touched after load (a kernel's stack and output arrays: about a dozen
// per run), and the room its page map leaves for them.
const lateChunk = 16

// NewImage returns an empty memory image.
func NewImage() *Image {
	return &Image{pages: make(map[uint64]*[pageSize]byte)}
}

// LoadImage returns an image holding a program's data segments. The page
// map is sized from the segments, and every page they touch is carved from
// one slab, so loading costs a few allocations however large the data is.
// Pages first touched later are allocated on demand, as in any image.
func LoadImage(segs []isa.DataSeg) *Image {
	spans := 0
	for _, seg := range segs {
		if first, last, ok := pageSpan(seg); ok {
			spans += int(last-first) + 1
		}
	}
	m := &Image{pages: make(map[uint64]*[pageSize]byte, spans+lateChunk)}
	// Claim the touched pages first (segments may share one), then carve
	// exactly that many from the slab.
	for _, seg := range segs {
		first, last, ok := pageSpan(seg)
		for pn := first; ok && pn <= last; pn++ {
			m.pages[pn] = nil
		}
	}
	slab := make([][pageSize]byte, len(m.pages))
	i := 0
	for pn := range m.pages {
		m.pages[pn] = &slab[i]
		i++
	}
	for _, seg := range segs {
		m.WriteBytes(seg.Addr, seg.Bytes)
	}
	return m
}

// pageSpan returns the first and last page numbers seg touches; ok is false
// for an empty segment.
func pageSpan(seg isa.DataSeg) (first, last uint64, ok bool) {
	if len(seg.Bytes) == 0 {
		return 0, 0, false
	}
	return seg.Addr >> pageShift, (seg.Addr + uint64(len(seg.Bytes)) - 1) >> pageShift, true
}

func (m *Image) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && alloc {
		if len(m.spare) == 0 {
			m.spare = make([][pageSize]byte, lateChunk)
		}
		p = &m.spare[0]
		m.spare = m.spare[1:]
		m.pages[pn] = p
	}
	return p
}

// Byte returns the byte at addr.
func (m *Image) Byte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Image) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns size bytes starting at addr, zero-extended into a uint64.
// size must be 1, 2, 4, or 8. Accesses may straddle page boundaries.
func (m *Image) Read(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Byte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr. size must be 1, 2, 4, or 8.
func (m *Image) Write(addr uint64, v uint64, size int) {
	off := addr & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadU64 reads an 8-byte little-endian word.
func (m *Image) ReadU64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteU64 writes an 8-byte little-endian word.
func (m *Image) WriteU64(addr uint64, v uint64) { m.Write(addr, v, 8) }

// WriteBytes copies b into memory starting at addr.
func (m *Image) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.page(addr, true)
		off := addr & pageMask
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// Clone returns a deep copy of the image. Used to snapshot the initial state
// so the timing model and the golden emulator run on independent memories.
// The copy's pages come from one slab, as LoadImage's do.
func (m *Image) Clone() *Image {
	c := &Image{pages: make(map[uint64]*[pageSize]byte, len(m.pages))}
	slab := make([][pageSize]byte, len(m.pages))
	i := 0
	for pn, p := range m.pages {
		slab[i] = *p
		c.pages[pn] = &slab[i]
		i++
	}
	return c
}

// Pages returns the number of allocated 4KB pages (for tests/diagnostics).
func (m *Image) Pages() int { return len(m.pages) }
