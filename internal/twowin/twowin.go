// Package twowin implements a lightweight in-order precompute BPU
// (SNIPPETS.md #1/#2): a small window — two entries in the reference design
// — over the oldest unresolved in-flight conditional branches. Every cycle
// it checks whether a windowed branch's renamed source registers are ready
// in the physical register file; if so it evaluates the condition with the
// forwarded values ahead of the branch's own issue and, when the computed
// next-PC disagrees with the prediction, repairs the pipeline through the
// same early-flush path the TEA thread uses. No uops are inserted and
// nothing is fetched: the window piggybacks entirely on main-thread state.
package twowin

import (
	"teasim/internal/companion"
	"teasim/internal/emu"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Stats counts window activity and the retired-misprediction
// classification (the shared Fig. 7 buckets, including TEA's Late bucket —
// a precompute that lost the race to main resolution).
type Stats struct {
	Tracked      uint64 // branches admitted to the window
	Evals        uint64 // early condition evaluations
	Agreements   uint64 // evaluations agreeing with the prediction
	EarlyFlushes uint64

	Precomputed uint64 // retired branches with a pre-resolution evaluation
	PreCorrect  uint64
	PreWrong    uint64

	CoveredMisp   uint64
	LateMisp      uint64
	IncorrectMisp uint64
	UncoveredMisp uint64
	CyclesSaved   uint64
}

// Accuracy returns the fraction of early evaluations that were correct.
func (s *Stats) Accuracy() float64 {
	if s.Precomputed == 0 {
		return 1
	}
	return float64(s.PreCorrect) / float64(s.Precomputed)
}

// Coverage returns the fraction of retired mispredictions fixed early.
func (s *Stats) Coverage() float64 {
	total := s.CoveredMisp + s.LateMisp + s.IncorrectMisp + s.UncoveredMisp
	if total == 0 {
		return 0
	}
	return float64(s.CoveredMisp) / float64(total)
}

// winEntry tracks one in-flight conditional branch. seq and pc are copies
// so a recycled uop pointer is detected instead of followed.
type winEntry struct {
	seq uint64
	pc  uint64
	u   *pipeline.Uop
}

// W is the two-window precompute BPU companion.
type W struct {
	Cfg  spec.TwoWindow
	core *pipeline.Core

	win []winEntry

	ivLast struct {
		covered, late, incorrect, uncovered uint64
		precomputed, preCorrect             uint64
	}

	Stats Stats
}

// New builds a two-window BPU and attaches it to the core.
func New(cfg spec.TwoWindow, c *pipeline.Core) *W {
	w := &W{Cfg: cfg, core: c, win: make([]winEntry, 0, cfg.WindowSize)}
	c.Attach(w)
	return w
}

func init() {
	companion.Register(spec.CompanionTwoWindow,
		func(s *spec.MachineSpec, c *pipeline.Core, _ companion.Options) (companion.Instance, error) {
			return wInstance{New(*s.Companion.TwoWin, c)}, nil
		})
}

// wInstance adapts the two-window BPU to the companion registry.
type wInstance struct{ w *W }

func (i wInstance) Metrics() companion.Metrics {
	s := &i.w.Stats
	m := companion.Metrics{
		Accuracy:     s.Accuracy(),
		Coverage:     s.Coverage(),
		Covered:      s.CoveredMisp,
		Late:         s.LateMisp,
		Incorrect:    s.IncorrectMisp,
		Uncovered:    s.UncoveredMisp,
		EarlyFlushes: s.EarlyFlushes,
	}
	if s.CoveredMisp > 0 {
		m.AvgCyclesSaved = float64(s.CyclesSaved) / float64(s.CoveredMisp)
	}
	return m
}

// --- Companion interface ---

// OnBlock is unused.
func (w *W) OnBlock(*pipeline.FetchBlock) {}

// OnMainFetch admits conditional branches into the window while there is
// room — fetch order means the window always holds the oldest unresolved
// tracked branches.
func (w *W) OnMainFetch(u *pipeline.Uop) {
	if len(w.win) >= w.Cfg.WindowSize || u.Rec == nil || !u.In.IsCondBranch() {
		return
	}
	w.win = append(w.win, winEntry{seq: u.Seq, pc: u.PC, u: u})
	w.Stats.Tracked++
}

// Tick scans the window: a tracked branch whose renamed sources are both
// ready is evaluated with the forwarded register values, mirroring the TEA
// thread's resolution protocol — record the precompute on the branch record
// and early-flush on disagreement with the prediction.
func (w *W) Tick() {
	if len(w.win) == 0 {
		return
	}
	evals := w.Cfg.EvalsPerCyc
	kept := w.win[:0]
	for i := range w.win {
		e := w.win[i]
		u := e.u
		if u == nil || u.Seq != e.seq || u.PC != e.pc {
			continue // recycled under us: the branch retired or was squashed
		}
		rec := u.Rec
		if rec == nil || rec.Seq != e.seq || rec.Resolved {
			continue
		}
		if rec.Precomputed || evals == 0 {
			kept = append(kept, e)
			continue
		}
		if !u.InRS && !u.Issued {
			kept = append(kept, e) // not renamed yet: operands unknown
			continue
		}
		pr := w.core.PRF
		if !pr.Ready[u.Prs1] || !pr.Ready[u.Prs2] {
			kept = append(kept, e)
			continue
		}
		evals--
		w.Stats.Evals++
		taken, target := emu.BranchOutcome(u.In, pr.Val[u.Prs1], pr.Val[u.Prs2])
		rec.Precomputed = true
		rec.PreTaken, rec.PreTarget, rec.PreCycle = taken, target, w.core.Cycle
		next := target
		if !taken {
			next = rec.PC + isa.InstBytes
		}
		if next == rec.PredNext {
			w.Stats.Agreements++
			kept = append(kept, e)
			continue
		}
		rec.PreFlushed = true
		w.Stats.EarlyFlushes++
		w.core.EarlyFlush(rec, taken, target)
		// The flush squashes everything younger than this branch; OnFlush
		// already dropped those entries from w.win, but kept may hold stale
		// copies appended before the flush — rebuild defensively.
		kept = append(kept, e)
		tail := w.win[i+1:]
		w.win = append(kept, tail...)
		w.dropYounger(e.seq)
		return
	}
	w.win = kept
}

// dropYounger removes window entries younger than seq.
func (w *W) dropYounger(seq uint64) {
	kept := w.win[:0]
	for _, e := range w.win {
		if e.seq <= seq {
			kept = append(kept, e)
		}
	}
	w.win = kept
}

// OnRetire drops the retired branch from the window and classifies the
// precompute outcome with TEA's retirement-time categories.
func (w *W) OnRetire(u *pipeline.Uop) {
	if len(w.win) > 0 && w.win[0].seq <= u.Seq {
		kept := w.win[:0]
		for _, e := range w.win {
			if e.seq > u.Seq {
				kept = append(kept, e)
			}
		}
		w.win = kept
	}
	if !u.In.IsBranch() || u.Rec == nil {
		return
	}
	rec := u.Rec
	if rec.WasMispred {
		w.classifyMisprediction(rec)
	}
	if rec.Precomputed && rec.PreCycle < rec.ResolveCycle {
		w.Stats.Precomputed++
		if precomputeCorrect(rec) {
			w.Stats.PreCorrect++
		} else {
			w.Stats.PreWrong++
		}
	}
}

func precomputeCorrect(rec *pipeline.BranchRec) bool {
	return rec.PreTaken == rec.ActualTaken &&
		(!rec.ActualTaken || rec.PreTarget == rec.ActualTarget)
}

func (w *W) classifyMisprediction(rec *pipeline.BranchRec) {
	switch {
	case !rec.Precomputed:
		w.Stats.UncoveredMisp++
	case rec.PreCycle >= rec.ResolveCycle:
		w.Stats.LateMisp++
	case !precomputeCorrect(rec):
		w.Stats.IncorrectMisp++
	case rec.PreFlushed:
		// The early flush actually fired: misprediction penalty shrunk.
		w.Stats.CoveredMisp++
		w.Stats.CyclesSaved += rec.ResolveCycle - rec.PreCycle
	default:
		w.Stats.LateMisp++
	}
}

// OnFlush drops squashed entries (everything younger than seq is gone).
func (w *W) OnFlush(seq uint64, branchRenamed bool) {
	w.dropYounger(seq)
}

// OnInterval annotates a telemetry sample with the window's per-interval
// coverage and accuracy.
func (w *W) OnInterval(iv *telemetry.Interval) {
	s := &w.Stats
	last := &w.ivLast
	dCov := s.CoveredMisp - last.covered
	dLate := s.LateMisp - last.late
	dInc := s.IncorrectMisp - last.incorrect
	dUnc := s.UncoveredMisp - last.uncovered
	if total := dCov + dLate + dInc + dUnc; total > 0 {
		iv.Coverage = float64(dCov) / float64(total)
	}
	if dPre := s.Precomputed - last.precomputed; dPre > 0 {
		iv.Accuracy = float64(s.PreCorrect-last.preCorrect) / float64(dPre)
	} else {
		iv.Accuracy = 1
	}
	last.covered, last.late, last.incorrect, last.uncovered =
		s.CoveredMisp, s.LateMisp, s.IncorrectMisp, s.UncoveredMisp
	last.precomputed, last.preCorrect = s.Precomputed, s.PreCorrect
}

// Quiescent implements the idle-skip contract conservatively: with a
// non-empty window a register can become ready mid-idle (a returning memory
// fill), so the window only reports quiescent when empty. Admissions happen
// at fetch, which ends the idle window on its own.
func (w *W) Quiescent(uint64) (bool, uint64) {
	return len(w.win) == 0, 0
}

// OnSkip is a no-op: there is no per-cycle bookkeeping.
func (w *W) OnSkip(uint64) {}

// OverridePrediction never fires: the window repairs branches in flight via
// the early-flush path rather than steering fetch-time predictions.
func (w *W) OverridePrediction(uint64, uint64) (bool, bool) { return false, false }

// The backend hooks are unused: the window never inserts uops.
func (w *W) LoadValue(uint64, int) (uint64, bool)       { return 0, false }
func (w *W) OlderStorePending(uint64) bool              { return false }
func (w *W) StoreExec(uint64, uint64, int)              {}
func (w *W) BranchResolved(*pipeline.Uop, bool, uint64) {}
func (w *W) UopExecuted(*pipeline.Uop)                  {}
func (w *W) UopSquashed(*pipeline.Uop)                  {}
func (w *W) PrecomputationWrong(uint64)                 {}
