package pipeline

// Object pools for the high-churn simulator records (uops, branch records,
// fetch blocks). The simulator allocates several objects per simulated cycle;
// recycling them keeps the Go GC out of the measurement loop.
//
// Recycle discipline (enforced by the call sites):
//   - a Uop returns to the pool exactly once: at retirement, when a
//     squashed-but-issued uop drains from the completion ring, or at flush
//     time for squashed uops that never issued;
//   - a BranchRec returns when it leaves the in-flight branch queue
//     (retirement or flush);
//   - a FetchBlock returns when it leaves the fetch queue.
//
// Companions must not retain pointers to these records across calls; they
// copy the fields they need (the Fill Buffer does exactly that).

// Pool misses are served from slabs, chunks of records allocated at once.
// The first slab of each pool holds the machine's in-flight bound (carve
// sizes it), so a core that stays within its bounds allocates no record
// after New; a pool that outgrows it takes further slabs of poolSlab
// records. The slabs are never returned to the GC while the core lives;
// in-flight populations are bounded by the machine's structure sizes, so
// the steady-state footprint is too.
const poolSlab = 256

// Each free list can hold every object its slabs have handed out, so a put
// never grows it: it is resized once per slab, when the slab is allocated
// (the free list is empty then, or get would have taken from it), to its
// old capacity plus the slab's size.
type pools struct {
	uops   []*Uop
	recs   []*BranchRec
	blocks []*FetchBlock

	uopSlab   []Uop
	recSlab   []BranchRec
	blockSlab []FetchBlock

	// branchesPerBlock is each fetch block's Branches capacity: the most
	// branches a block can hold (Config.MaxBlockInstrs), so predict never
	// grows it. A slab's blocks carve their Branches from one backing array
	// allocated with the slab.
	branchesPerBlock int
}

// init allocates each pool's first slab at its in-flight bound. The free
// lists already have that capacity (carve sizes them).
func (p *pools) init(uops, recs, blocks, branchesPerBlock int) {
	p.uopSlab = make([]Uop, uops)
	p.recSlab = make([]BranchRec, recs)
	p.branchesPerBlock = branchesPerBlock
	p.carveBlocks(make([]FetchBlock, blocks))
}

func (p *pools) getUop() *Uop {
	if n := len(p.uops); n > 0 {
		u := p.uops[n-1]
		p.uops = p.uops[:n-1]
		*u = Uop{}
		return u
	}
	if len(p.uopSlab) == 0 {
		p.uopSlab = make([]Uop, poolSlab)
		p.uops = make([]*Uop, 0, cap(p.uops)+poolSlab)
	}
	u := &p.uopSlab[0]
	p.uopSlab = p.uopSlab[1:]
	return u
}

func (p *pools) putUop(u *Uop) {
	if u.pooled {
		return
	}
	u.pooled = true
	p.uops = append(p.uops, u)
}

func (p *pools) getRec() *BranchRec {
	if n := len(p.recs); n > 0 {
		r := p.recs[n-1]
		p.recs = p.recs[:n-1]
		*r = BranchRec{}
		return r
	}
	if len(p.recSlab) == 0 {
		p.recSlab = make([]BranchRec, poolSlab)
		p.recs = make([]*BranchRec, 0, cap(p.recs)+poolSlab)
	}
	r := &p.recSlab[0]
	p.recSlab = p.recSlab[1:]
	return r
}

func (p *pools) putRec(r *BranchRec) {
	if r.pooled {
		return
	}
	r.pooled = true
	p.recs = append(p.recs, r)
}

func (p *pools) getBlock() *FetchBlock {
	if n := len(p.blocks); n > 0 {
		b := p.blocks[n-1]
		p.blocks = p.blocks[:n-1]
		br := b.Branches[:0]
		*b = FetchBlock{Branches: br}
		return b
	}
	if len(p.blockSlab) == 0 {
		p.newBlockSlab()
	}
	b := &p.blockSlab[0]
	p.blockSlab = p.blockSlab[1:]
	return b
}

// newBlockSlab allocates a further slab of blocks.
func (p *pools) newBlockSlab() {
	p.blocks = make([]*FetchBlock, 0, cap(p.blocks)+poolSlab)
	p.carveBlocks(make([]FetchBlock, poolSlab))
}

// carveBlocks makes slab the block pool's current slab, carving every
// block's branch list from one backing array.
func (p *pools) carveBlocks(slab []FetchBlock) {
	n := p.branchesPerBlock
	branches := make([]blockBranch, len(slab)*n)
	for i := range slab {
		slab[i].Branches = branches[i*n : i*n : (i+1)*n]
	}
	p.blockSlab = slab
}

func (p *pools) putBlock(b *FetchBlock) {
	if b.pooled {
		return
	}
	b.pooled = true
	p.blocks = append(p.blocks, b)
}
