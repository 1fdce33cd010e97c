package bpred

// Statistical corrector: a small GEHL-style confidence network that can
// override low-confidence TAGE predictions, as in TAGE-SC-L. It sums signed
// counters from a bias table and a few history-indexed tables; when the sum
// disagrees with TAGE with enough magnitude, the prediction is flipped.

const (
	scTables   = 4 // bias + 3 history lengths
	scBiasBits = 12
	scTblBits  = 10
	scCtrMax   = 31
	scCtrMin   = -32
)

var scHistLens = [scTables - 1]uint32{6, 14, 30}

type scorr struct {
	bias   [1 << scBiasBits]int8
	tables [scTables - 1][1 << scTblBits]int8
	folds  [scTables - 1]int
	hist   *History

	thresh int32 // dynamic flip threshold
	tc     int8  // threshold adaptation counter
}

func (s *scorr) init(h *History) {
	s.hist, s.thresh = h, 6
	for i := range s.tables {
		s.folds[i] = h.RegisterFold(scHistLens[i], scTblBits)
	}
}

// predict refines the TAGE prediction in ctx, recording the indices and sum
// needed for training.
func (s *scorr) predict(pc uint64, ctx *CondCtx) {
	ctx.scIdx[0] = uint32(pc>>2) & (1<<scBiasBits - 1)
	sum := int32(2*s.bias[ctx.scIdx[0]] + 1)
	for i := range s.tables {
		idx := (uint32(pc>>2) ^ s.hist.Fold(s.folds[i]) ^ uint32(i)<<3) & (1<<scTblBits - 1)
		ctx.scIdx[i+1] = idx
		sum += int32(2*s.tables[i][idx] + 1)
	}
	// TAGE's own vote, weighted by provider confidence.
	tageWeight := int32(5)
	if ctx.weakProv {
		tageWeight = 2
	}
	if ctx.TagePred {
		sum += tageWeight
	} else {
		sum -= tageWeight
	}
	ctx.scSum = sum
	scPred := sum >= 0
	if scPred != ctx.TagePred && abs32(sum) >= s.thresh {
		ctx.scUsed = true
		ctx.Pred = scPred
	}
}

// update trains the corrector counters and adapts the flip threshold.
func (s *scorr) update(ctx *CondCtx, taken bool) {
	scPred := ctx.scSum >= 0
	mag := abs32(ctx.scSum)
	// Train on mispredictions and low-confidence correct predictions.
	if scPred != taken || mag < s.thresh+4 {
		updateCtr(&s.bias[ctx.scIdx[0]], taken, scCtrMin, scCtrMax)
		for i := range s.tables {
			updateCtr(&s.tables[i][ctx.scIdx[i+1]], taken, scCtrMin, scCtrMax)
		}
	}
	// Threshold adaptation (Seznec): widen when flips hurt, narrow when
	// near-threshold sums are correct.
	if ctx.scUsed {
		if (ctx.Pred == taken) != (ctx.TagePred == taken) {
			if ctx.Pred == taken {
				s.tc--
			} else {
				s.tc++
			}
			if s.tc >= 4 {
				if s.thresh < 60 {
					s.thresh++
				}
				s.tc = 0
			} else if s.tc <= -4 {
				if s.thresh > 4 {
					s.thresh--
				}
				s.tc = 0
			}
		}
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
