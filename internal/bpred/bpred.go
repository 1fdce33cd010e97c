package bpred

import (
	"fmt"

	"teasim/internal/isa"
)

// Config sets the predictor-stack geometry. Every field is required:
// pipeline.ConfigFromSpec fills it from a machine spec's predictor section,
// whose baseline preset holds the Table I values.
type Config struct {
	// TageTables is the number of tagged TAGE tables (1..12).
	TageTables int
	// TageHistLens holds the tables' geometric history lengths (len must
	// equal TageTables, each in 1..MaxFoldLen).
	TageHistLens []uint32
	// BTBEntries/BTBWays set the branch target buffer geometry (the set
	// count must be a power of two).
	BTBEntries int
	BTBWays    int
	// RASEntries sets the return address stack depth.
	RASEntries int
}

// check rejects geometry the implementation cannot index, zero fields
// included. spec.Validate holds a machine spec to the same rules, so a
// failure here is a caller's bug.
func (c *Config) check() {
	if c.TageTables < 1 || c.TageTables > nTables {
		panic(fmt.Sprintf("bpred: TageTables %d out of range [1,%d]", c.TageTables, nTables))
	}
	if len(c.TageHistLens) != c.TageTables {
		panic(fmt.Sprintf("bpred: %d history lengths for %d TAGE tables", len(c.TageHistLens), c.TageTables))
	}
	for _, l := range c.TageHistLens {
		if l < 1 || l > MaxFoldLen {
			panic(fmt.Sprintf("bpred: TAGE history length %d outside [1,%d]", l, MaxFoldLen))
		}
	}
	if c.BTBWays < 1 {
		panic(fmt.Sprintf("bpred: BTBWays %d not positive", c.BTBWays))
	}
	sets := c.BTBEntries / c.BTBWays
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("bpred: BTB set count %d not a power of two (entries %d / ways %d)", sets, c.BTBEntries, c.BTBWays))
	}
	if c.RASEntries < 1 {
		panic(fmt.Sprintf("bpred: RASEntries %d not positive", c.RASEntries))
	}
}

// Predictor is the full decoupled prediction stack: TAGE-SC-L conditional
// predictor, ITTAGE-lite indirect predictor, BTB, and RAS over a shared
// speculative history.
//
// Protocol (driven by the pipeline's decoupled frontend):
//
//  1. For each branch instruction reached while generating fetch addresses,
//     call Predict(pc). If the branch misses in the BTB the predictor does
//     not "see" it: no speculative state is updated and the implicit
//     prediction is not-taken (the returned Pred still carries the recovery
//     snapshot).
//  2. On a misprediction flush (from the main thread or an early TEA flush),
//     call Recover with the actual outcome; this rewinds all speculative
//     state to just before the branch and re-applies the branch with its
//     true outcome.
//  3. At retirement call Train exactly once per branch.
//
// The components read the folded views of Hist through a pointer, so a
// Predictor is used in place, never copied.
type Predictor struct {
	Hist History
	BTB  BTB
	RAS  RAS

	tage tage
	sc   scorr
	loop loopPred
	it   ittage
}

// NewWithConfig constructs the predictor stack with the given geometry.
// Everything but the config-sized tables lives in the one Predictor value:
// building it allocates that value, the tagged TAGE tables' backing slice,
// the BTB's entries and the RAS's stack.
func NewWithConfig(cfg Config) *Predictor {
	cfg.check()
	p := &Predictor{
		BTB: newBTB(cfg.BTBEntries, cfg.BTBWays),
		RAS: newRAS(cfg.RASEntries),
	}
	p.tage.init(&p.Hist, cfg.TageTables, cfg.TageHistLens)
	p.sc.init(&p.Hist)
	p.it.init(&p.Hist)
	return p
}

// Snapshot bundles all speculative predictor state for one branch.
type Snapshot struct {
	Hist Checkpoint
	RAS  RASCheckpoint
}

// Pred is the result of predicting one branch, including everything needed
// to recover from and train on it.
type Pred struct {
	PC     uint64
	BTBHit bool
	Kind   BranchKind
	IsCall bool
	Taken  bool
	Target uint64 // valid when Taken

	Cond CondCtx
	Ind  IndCtx
	Snap Snapshot
}

// Predict predicts the branch at pc and speculatively updates history/RAS.
// On a BTB miss the prediction is implicitly not-taken and no speculative
// state changes (the snapshot is still captured for recovery).
func (p *Predictor) Predict(pc uint64) Pred {
	var pred Pred
	p.PredictInto(pc, &pred)
	return pred
}

// PredictInto is Predict writing into caller-owned storage (the in-flight
// branch queue entry), avoiding a large struct copy per branch.
func (p *Predictor) PredictInto(pc uint64, pred *Pred) {
	*pred = Pred{PC: pc}
	p.Hist.SaveInto(&pred.Snap.Hist)
	pred.Snap.RAS = p.RAS.Save()
	target, kind, isCall, hit := p.BTB.Lookup(pc)
	if !hit {
		return
	}
	pred.BTBHit, pred.Kind, pred.IsCall = true, kind, isCall

	switch kind {
	case KindCond:
		p.tage.predict(pc, &pred.Cond)
		p.sc.predict(pc, &pred.Cond)
		p.loop.predict(pc, &pred.Cond)
		pred.Taken = pred.Cond.Pred
		pred.Target = target
	case KindDirect:
		pred.Taken, pred.Target = true, target
	case KindIndirect:
		p.it.predict(pc, &pred.Ind)
		pred.Taken = true
		if pred.Ind.hit {
			pred.Target = pred.Ind.Pred
		} else {
			pred.Target = target // BTB last-seen target fallback
		}
	case KindReturn:
		pred.Taken, pred.Target = true, p.RAS.Peek()
	}
	p.specUpdate(kind, pc, pred.Taken, pred.Target, isCall)
}

// ForceConditional overrides the conditional prediction in pred (already
// produced by PredictInto) with an externally computed direction, repairing
// the speculative history to reflect the forced outcome. Only valid for
// BTB-hit conditional branches.
func (p *Predictor) ForceConditional(pred *Pred, taken bool) {
	if !pred.BTBHit || pred.Kind != KindCond || pred.Taken == taken {
		pred.Taken = taken
		return
	}
	// Rewind the speculative update made with the TAGE direction and
	// re-apply with the forced one.
	p.Hist.Restore(&pred.Snap.Hist)
	p.RAS.Restore(pred.Snap.RAS)
	p.loop.restore(&pred.Cond)
	pred.Taken = taken
	p.specUpdate(KindCond, pred.PC, taken, pred.Target, false)
}

// specUpdate applies a branch's speculative effect on history and RAS. It is
// used both at prediction time (with the predicted outcome) and during
// recovery (with the actual outcome).
func (p *Predictor) specUpdate(kind BranchKind, pc uint64, taken bool, target uint64, isCall bool) {
	switch kind {
	case KindCond:
		p.Hist.Push(taken)
		if taken {
			p.Hist.PushPath(pc)
		}
	case KindDirect:
		p.Hist.Push(true)
		p.Hist.PushPath(pc)
		if isCall {
			p.RAS.Push(pc + isa.InstBytes)
		}
	case KindIndirect:
		// Mix target bits into the history for indirect correlation.
		p.Hist.Push(target>>2&1 == 1)
		p.Hist.Push(target>>3&1 == 1)
		p.Hist.PushPath(pc)
		if isCall {
			p.RAS.Push(pc + isa.InstBytes)
		}
	case KindReturn:
		p.Hist.Push(true)
		p.Hist.PushPath(pc)
		p.RAS.Pop()
	}
}

// Recover rewinds speculative state to just before the mispredicted branch
// and re-applies it with its actual outcome. in is the branch instruction
// (the predictor may not have known its kind if the BTB missed). The BTB is
// trained immediately so the next occurrence is identified.
func (p *Predictor) Recover(pred *Pred, in *isa.Inst, actualTaken bool, actualTarget uint64) {
	p.Hist.Restore(&pred.Snap.Hist)
	p.RAS.Restore(pred.Snap.RAS)
	if pred.BTBHit && pred.Kind == KindCond {
		p.loop.restore(&pred.Cond)
	}
	kind := KindOf(in)
	if actualTaken || kind != KindCond {
		p.BTB.Insert(pred.PC, actualTarget, kind, in.IsCall())
		p.specUpdate(kind, pred.PC, actualTaken, actualTarget, in.IsCall())
	}
	// A not-taken conditional stays invisible to the history (matching what
	// prediction will do next time if the BTB still misses, and what a
	// correct BTB-hit prediction applied).
	if !actualTaken && kind == KindCond && pred.BTBHit {
		// It was visible at prediction time; keep it visible.
		p.specUpdate(kind, pred.PC, actualTaken, actualTarget, false)
	}
}

// Train updates all predictor components at retirement.
func (p *Predictor) Train(pred *Pred, in *isa.Inst, taken bool, target uint64) {
	kind := KindOf(in)
	if pred.BTBHit {
		switch kind {
		case KindCond:
			p.tage.update(&pred.Cond, taken)
			p.sc.update(&pred.Cond, taken)
			p.loop.train(&pred.Cond, taken)
			p.loop.update(&pred.Cond, taken)
		case KindIndirect:
			p.it.update(&pred.Ind, target)
		}
	}
	// Insert taken branches into the BTB (never-taken conditionals stay out:
	// their implicit not-taken prediction is free and correct).
	if taken {
		p.BTB.Insert(pred.PC, target, kind, in.IsCall())
	}
}
