package bpred

// History-based indirect target predictor (ITTAGE-lite): two partially
// tagged tables indexed with folded global history of different lengths,
// falling back to the BTB's last-seen target. Covers jr/callr targets
// (switch dispatch, indirect calls); returns use the RAS instead.

const (
	indTables  = 2
	indTblBits = 11
	indTagBits = 10
)

var indHistLens = [indTables]uint32{8, 24}

// Field order keeps an indEntry at 16 bytes.
type indEntry struct {
	target uint64
	tag    uint16
	ctr    int8 // confidence in [-2, 1]
}

// IndCtx is the per-prediction training context for indirect branches.
type IndCtx struct {
	PC       uint64
	provider int8 // -1 = BTB fallback
	idx      [indTables]uint32
	tag      [indTables]uint16
	Pred     uint64
	hit      bool
}

type ittage struct {
	tables   [indTables][1 << indTblBits]indEntry
	idxFolds [indTables]int
	tagFolds [indTables]int
	hist     *History
}

func (it *ittage) init(h *History) {
	it.hist = h
	for i := 0; i < indTables; i++ {
		it.idxFolds[i] = h.RegisterFold(indHistLens[i], indTblBits)
		it.tagFolds[i] = h.RegisterFold(indHistLens[i], indTagBits)
	}
}

// predict returns the predicted target (0 if no component hit) and fills ctx.
func (it *ittage) predict(pc uint64, ctx *IndCtx) {
	ctx.PC = pc
	ctx.provider = -1
	for i := 0; i < indTables; i++ {
		ctx.idx[i] = (uint32(pc>>2) ^ it.hist.Fold(it.idxFolds[i]) ^ it.hist.Path()) & (1<<indTblBits - 1)
		ctx.tag[i] = uint16(uint32(pc>>3)^it.hist.Fold(it.tagFolds[i])) & (1<<indTagBits - 1)
	}
	for i := indTables - 1; i >= 0; i-- {
		e := &it.tables[i][ctx.idx[i]]
		if e.tag == ctx.tag[i] && e.ctr >= 0 {
			ctx.provider = int8(i)
			ctx.Pred = e.target
			ctx.hit = true
			return
		}
	}
	ctx.hit = false
}

// update trains the indirect tables with the resolved target.
func (it *ittage) update(ctx *IndCtx, target uint64) {
	if ctx.provider >= 0 {
		e := &it.tables[ctx.provider][ctx.idx[ctx.provider]]
		if e.target == target {
			if e.ctr < 1 {
				e.ctr++
			}
			return
		}
		if e.ctr > -2 {
			e.ctr--
		}
		if e.ctr < 0 {
			e.target = target
		}
	}
	// Mispredicted (or no provider): allocate in a longer-history table.
	start := int(ctx.provider) + 1
	for i := start; i < indTables; i++ {
		e := &it.tables[i][ctx.idx[i]]
		if e.ctr <= 0 {
			*e = indEntry{tag: ctx.tag[i], target: target, ctr: 0}
			return
		}
		e.ctr--
	}
}
