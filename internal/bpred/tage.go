package bpred

// TAGE conditional branch predictor (Seznec-style): a bimodal base table
// plus nTables partially tagged tables indexed with geometrically increasing
// folded global histories. A small loop predictor and statistical corrector
// (sc.go) sit on top, forming the TAGE-SC-L-class predictor from Table I.

const (
	nTables     = 12 // maximum (and default) tagged-table count
	baseBits    = 14 // 16K-entry bimodal
	tableBits   = 10 // 1K entries per tagged table
	ctrMax      = 3  // 3-bit signed counter in [-4, 3]
	ctrMin      = -4
	uMax        = 3
	uResetEvery = 1 << 18 // graceful usefulness decay period (branches)
)

// tag widths per table (longer histories get wider tags).
var tagBits = [nTables]uint32{8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 12, 12}

// Field order keeps a tageEntry at 4 bytes.
type tageEntry struct {
	tag uint16
	ctr int8
	u   uint8
}

type tageTable struct {
	entries  []tageEntry
	idxFold  int // History fold handles
	tagFold  int
	tagFold2 int
	pathMask uint32 // the low min(histLen, 16) path-history bits the index mixes in
	tagMask  uint16
}

// CondCtx carries the per-prediction state needed to train the conditional
// predictor at retirement. It is stored in the pipeline's in-flight branch
// queue alongside the history checkpoint.
type CondCtx struct {
	PC       uint64
	Pred     bool // final prediction (after loop/SC)
	TagePred bool
	AltPred  bool
	provider int8 // table index of provider, -1 = bimodal
	altTable int8 // table index of altpred, -1 = bimodal
	provIdx  uint32
	altIdx   uint32
	provTag  uint16
	baseIdx  uint32
	provPred bool // raw provider-counter prediction (before alt override)
	weakProv bool
	// tags/indices computed at prediction time for allocation on mispredict.
	idx [nTables]uint32
	tag [nTables]uint16
	// loop predictor context
	loopHit  bool
	loopPred bool
	loopIdx  int
	loopSpec uint16
	// statistical corrector context
	scSum  int32
	scUsed bool
	scIdx  [scTables]uint32
}

type tage struct {
	base   [1 << baseBits]int8 // bimodal counters, 2-bit in [-2,1]
	tables [nTables]tageTable
	n      int // tagged tables in use (tables[:n])
	hist   *History

	useAltOnNA int8 // prefer altpred for newly allocated entries
	branchTick uint64
	allocSeed  uint32 // deterministic xorshift for allocation choice
}

// init sets up n tagged tables over the history lengths lens, carving
// their entries from one backing slice.
func (t *tage) init(h *History, n int, lens []uint32) {
	t.n, t.hist, t.allocSeed = n, h, 0x9e3779b9
	entries := make([]tageEntry, n<<tableBits)
	for i := 0; i < n; i++ {
		tb := &t.tables[i]
		tb.entries = entries[i<<tableBits : (i+1)<<tableBits : (i+1)<<tableBits]
		tb.pathMask = 1<<min(lens[i], 16) - 1
		tb.tagMask = uint16(1<<tagBits[i] - 1)
		tb.idxFold = h.RegisterFold(lens[i], tableBits)
		tb.tagFold = h.RegisterFold(lens[i], tagBits[i])
		tb.tagFold2 = h.RegisterFold(lens[i], tagBits[i]-1)
	}
}

func (t *tage) rng() uint32 {
	t.allocSeed ^= t.allocSeed << 13
	t.allocSeed ^= t.allocSeed >> 17
	t.allocSeed ^= t.allocSeed << 5
	return t.allocSeed
}

// index is the table's entry index for pc under history h.
func (tb *tageTable) index(pc uint64, h *History) uint32 {
	x := uint32(pc>>2) ^ uint32(pc>>(2+tableBits)) ^ h.Fold(tb.idxFold) ^ h.Path()&tb.pathMask
	return x & (1<<tableBits - 1)
}

// tagOf is the table's tag for pc under history h.
func (tb *tageTable) tagOf(pc uint64, h *History) uint16 {
	return uint16(uint32(pc>>2)^h.Fold(tb.tagFold)^h.Fold(tb.tagFold2)<<1) & tb.tagMask
}

func (t *tage) baseIndex(pc uint64) uint32 {
	return uint32(pc>>2) & (1<<baseBits - 1)
}

// predict computes the TAGE component prediction and fills ctx.
func (t *tage) predict(pc uint64, ctx *CondCtx) {
	ctx.PC = pc
	ctx.provider, ctx.altTable = -1, -1
	ctx.baseIdx = t.baseIndex(pc)
	basePred := t.base[ctx.baseIdx] >= 0

	h := t.hist
	for i := range t.tables[:t.n] {
		tb := &t.tables[i]
		ctx.idx[i], ctx.tag[i] = tb.index(pc, h), tb.tagOf(pc, h)
	}
	for i := t.n - 1; i >= 0; i-- {
		e := &t.tables[i].entries[ctx.idx[i]]
		if e.tag == ctx.tag[i] {
			if ctx.provider < 0 {
				ctx.provider = int8(i)
				ctx.provIdx = ctx.idx[i]
				ctx.provTag = ctx.tag[i]
			} else if ctx.altTable < 0 {
				ctx.altTable = int8(i)
				ctx.altIdx = ctx.idx[i]
				break
			}
		}
	}

	ctx.AltPred = basePred
	if ctx.altTable >= 0 {
		ctx.AltPred = t.tables[ctx.altTable].entries[ctx.altIdx].ctr >= 0
	}
	if ctx.provider >= 0 {
		e := &t.tables[ctx.provider].entries[ctx.provIdx]
		ctx.provPred = e.ctr >= 0
		ctx.TagePred = ctx.provPred
		// Newly allocated entries (weak ctr, low usefulness) may be less
		// reliable than the alternate prediction.
		ctx.weakProv = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if ctx.weakProv && t.useAltOnNA >= 0 {
			ctx.TagePred = ctx.AltPred
		}
	} else {
		ctx.provPred = basePred
		ctx.TagePred = basePred
	}
	ctx.Pred = ctx.TagePred
}

// update trains TAGE with the resolved outcome. Called at retirement with
// the context captured at prediction time.
func (t *tage) update(ctx *CondCtx, taken bool) {
	t.branchTick++
	if t.branchTick%uResetEvery == 0 {
		for i := 0; i < t.n; i++ {
			for j := range t.tables[i].entries {
				t.tables[i].entries[j].u >>= 1
			}
		}
	}

	correct := ctx.TagePred == taken
	// useAltOnNA tracks whether alt beats a weak provider when they differ.
	if ctx.provider >= 0 && ctx.weakProv && ctx.provPred != ctx.AltPred {
		if ctx.provPred == taken && t.useAltOnNA > -8 {
			t.useAltOnNA--
		} else if ctx.provPred != taken && t.useAltOnNA < 7 {
			t.useAltOnNA++
		}
	}

	// Allocate on misprediction in a table with longer history.
	if !correct && ctx.provider < int8(t.n-1) {
		t.allocate(ctx, taken)
	}

	if ctx.provider >= 0 {
		e := &t.tables[ctx.provider].entries[ctx.provIdx]
		updateCtr(&e.ctr, taken, ctrMin, ctrMax)
		// Usefulness: reward the provider when it beat the alternate.
		if ctx.provPred != ctx.AltPred {
			if ctx.provPred == taken && e.u < uMax {
				e.u++
			} else if ctx.provPred != taken && e.u > 0 {
				e.u--
			}
		}
		// Also train alt/base when the provider entry is weak.
		if ctx.weakProv {
			if ctx.altTable >= 0 {
				updateCtr(&t.tables[ctx.altTable].entries[ctx.altIdx].ctr, taken, ctrMin, ctrMax)
			} else {
				updateBase(&t.base[ctx.baseIdx], taken)
			}
		}
	} else {
		updateBase(&t.base[ctx.baseIdx], taken)
	}
}

// allocate tries to claim an entry in a table with longer history than the
// provider, preferring entries with zero usefulness.
func (t *tage) allocate(ctx *CondCtx, taken bool) {
	start := int(ctx.provider) + 1
	// Randomize the first candidate slightly (as in TAGE) to avoid ping-pong.
	if start < t.n-1 && t.rng()&3 == 0 {
		start++
	}
	allocated := 0
	for i := start; i < t.n && allocated < 2; i++ {
		e := &t.tables[i].entries[ctx.idx[i]]
		if e.u == 0 {
			e.tag = ctx.tag[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			e.u = 0
			allocated++
			i++ // skip adjacent table to spread allocations
		} else if e.u > 0 && allocated == 0 {
			// Decay usefulness so a future allocation can succeed.
			e.u--
		}
	}
}

func updateCtr(c *int8, taken bool, lo, hi int8) {
	if taken {
		if *c < hi {
			*c++
		}
	} else if *c > lo {
		*c--
	}
}

func updateBase(c *int8, taken bool) { updateCtr(c, taken, -2, 1) }
