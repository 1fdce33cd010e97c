package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"teasim/internal/isa"
)

func TestImageReadWrite(t *testing.T) {
	m := NewImage()
	if got := m.Read(0x1234, 8); got != 0 {
		t.Fatalf("untouched memory = %#x, want 0", got)
	}
	m.WriteU64(0x1000, 0x1122334455667788)
	if got := m.ReadU64(0x1000); got != 0x1122334455667788 {
		t.Fatalf("ReadU64 = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Fatalf("low half = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Fatalf("high half = %#x", got)
	}
	if got := m.Read(0x1003, 1); got != 0x55 {
		t.Fatalf("byte = %#x", got)
	}
	m.Write(0x1002, 0xAB, 1)
	if got := m.ReadU64(0x1000); got != 0x11223344_55AB7788 {
		t.Fatalf("byte patch = %#x", got)
	}
}

func TestImagePageStraddle(t *testing.T) {
	m := NewImage()
	addr := uint64(pageSize - 3) // 8-byte access straddles page 0/1
	m.Write(addr, 0xDEADBEEFCAFEF00D, 8)
	if got := m.Read(addr, 8); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("straddle read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
}

func TestImageWriteBytes(t *testing.T) {
	m := NewImage()
	data := make([]byte, 3*pageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint64(pageSize / 2)
	m.WriteBytes(base, data)
	for i, want := range data {
		if got := m.Byte(base + uint64(i)); got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestImageClone(t *testing.T) {
	m := NewImage()
	m.WriteU64(0x40, 42)
	c := m.Clone()
	c.WriteU64(0x40, 99)
	if got := m.ReadU64(0x40); got != 42 {
		t.Fatalf("clone aliased original: %d", got)
	}
	if got := c.ReadU64(0x40); got != 99 {
		t.Fatalf("clone write lost: %d", got)
	}
}

// readBytes returns n bytes of m starting at addr.
func readBytes(m *Image, addr uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.Byte(addr + uint64(i))
	}
	return b
}

// checkSegs asserts that m holds every segment's bytes.
func checkSegs(t *testing.T, m *Image, segs []isa.DataSeg) {
	t.Helper()
	for i, seg := range segs {
		if got := readBytes(m, seg.Addr, len(seg.Bytes)); !bytes.Equal(got, seg.Bytes) {
			t.Fatalf("segment %d at %#x reads back %x, want %x", i, seg.Addr, got, seg.Bytes)
		}
	}
}

func TestLoadImageSharedPage(t *testing.T) {
	segs := []isa.DataSeg{
		{Addr: 0x1000, Bytes: []byte{1, 2, 3, 4}},
		{Addr: 0x1800, Bytes: []byte{5, 6, 7, 8}},
	}
	m := LoadImage(segs)
	checkSegs(t, m, segs)
	if m.Pages() != 1 {
		t.Fatalf("pages = %d, want 1 (both segments are on page 1)", m.Pages())
	}
	if got := m.Read(0x1004, 4); got != 0 {
		t.Fatalf("gap between segments = %#x, want 0", got)
	}
}

func TestLoadImageStraddle(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	segs := []isa.DataSeg{{Addr: 2*pageSize - 32, Bytes: data}}
	m := LoadImage(segs)
	checkSegs(t, m, segs)
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
	if got := m.Read(2*pageSize-4, 8); got != 0x24232221201f1e1d {
		t.Fatalf("read across the page boundary = %#x", got)
	}
}

func TestLoadImageEmptySegment(t *testing.T) {
	segs := []isa.DataSeg{
		{Addr: 0x5000, Bytes: nil},
		{Addr: 0x9000, Bytes: []byte{}},
		{Addr: 0x3000, Bytes: []byte{0xAA}},
	}
	m := LoadImage(segs)
	checkSegs(t, m, segs)
	if m.Pages() != 1 {
		t.Fatalf("pages = %d, want 1 (empty segments touch no page)", m.Pages())
	}
	if m := LoadImage(nil); m.Pages() != 0 || m.ReadU64(0x5000) != 0 {
		t.Fatalf("image of no segments: %d pages", m.Pages())
	}
}

func TestLoadImageUntouchedPage(t *testing.T) {
	segs := []isa.DataSeg{{Addr: 0x1000, Bytes: []byte{9}}}
	m := LoadImage(segs)
	if got := m.ReadU64(0x7000); got != 0 {
		t.Fatalf("untouched page reads %#x, want 0", got)
	}
	if m.Pages() != 1 {
		t.Fatalf("a read allocated a page: pages = %d", m.Pages())
	}
	m.WriteU64(0x7008, 0xFEEDFACE)
	if got := m.ReadU64(0x7008); got != 0xFEEDFACE {
		t.Fatalf("write to a new page reads back %#x", got)
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2 after writing a new page", m.Pages())
	}
	checkSegs(t, m, segs)
}

func TestCloneSlabImageIndependent(t *testing.T) {
	data := make([]byte, 3*pageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	segs := []isa.DataSeg{{Addr: 0x10000, Bytes: data}, {Addr: 0x40000, Bytes: []byte{7}}}
	m := LoadImage(segs)
	c := m.Clone()
	checkSegs(t, c, segs)
	if c.Pages() != m.Pages() {
		t.Fatalf("clone has %d pages, original %d", c.Pages(), m.Pages())
	}
	// Neither image may see the other's stores, on a loaded page or a
	// fresh one.
	m.WriteU64(0x10000, 1)
	c.WriteU64(0x11000, 2)
	m.WriteU64(0x80000, 3)
	c.WriteU64(0x90000, 4)
	if got := c.ReadU64(0x10000); got != binary.LittleEndian.Uint64(data) {
		t.Fatalf("clone sees the original's store: %#x", got)
	}
	if got := m.ReadU64(0x11000); got != binary.LittleEndian.Uint64(data[pageSize:]) {
		t.Fatalf("original sees the clone's store: %#x", got)
	}
	if c.ReadU64(0x80000) != 0 || m.ReadU64(0x90000) != 0 {
		t.Fatal("a store to a fresh page leaked across the clone")
	}
	if m.ReadU64(0x10000) != 1 || c.ReadU64(0x11000) != 2 {
		t.Fatal("own stores lost")
	}
}

// Property: for any address and value, a write of a given size followed by a
// read of the same size returns the value truncated to that size.
func TestImageRoundTripProperty(t *testing.T) {
	m := NewImage()
	sizes := []int{1, 2, 4, 8}
	f := func(addr uint64, v uint64, szIdx uint8) bool {
		addr %= 1 << 20 // keep the page map small
		sz := sizes[int(szIdx)%len(sizes)]
		m.Write(addr, v, sz)
		got := m.Read(addr, sz)
		want := v
		if sz < 8 {
			want &= (1 << (8 * sz)) - 1
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: writes to disjoint byte ranges do not interfere.
func TestImageDisjointWritesProperty(t *testing.T) {
	f := func(a uint32, b uint32) bool {
		m := NewImage()
		addrA := uint64(a) % (1 << 16)
		addrB := addrA + 8 + uint64(b)%1024
		m.Write(addrA, 0x0101010101010101, 8)
		m.Write(addrB, 0x0202020202020202, 8)
		return m.Read(addrA, 8) == 0x0101010101010101 &&
			m.Read(addrB, 8) == 0x0202020202020202
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
