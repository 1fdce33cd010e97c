// Package bullseye implements the Bullseye companion: large dedicated
// tagged pattern tables, one per tracked H2P branch, trained at retirement
// from local branch history and consulted at fetch time through
// OverridePrediction (Behrendt et al. 2025). Unlike TEA it executes
// nothing — it trades storage (kilobytes of pattern table per branch) for
// accuracy on branches whose outcome stream is locally repetitive.
//
// Because the decoupled BP runs ahead of retirement, a fetch-time lookup
// must predict the branch several instances ahead of the last retired one.
// The predictor chains its own table: starting from the retired local
// history it predicts one step, shifts the predicted outcome into the
// history, and repeats for the in-flight depth (the count of fetched but
// not yet retired instances of the branch). The override is only offered
// when every step of the chain clears the confidence threshold.
package bullseye

import (
	"teasim/internal/companion"
	"teasim/internal/core"
	"teasim/internal/pipeline"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Stats counts predictor activity and the retired-misprediction
// classification (the shared Fig. 7 buckets).
type Stats struct {
	Allocs    uint64 // branch slots allocated
	Evictions uint64 // LRU slot evictions
	Overrides uint64 // fetch-time overrides offered

	Precomputed uint64 // retired branches carrying an override
	PreCorrect  uint64
	PreWrong    uint64

	CoveredMisp   uint64
	IncorrectMisp uint64 // override made a correct prediction wrong
	UncoveredMisp uint64
	CyclesSaved   uint64
}

// Accuracy returns the fraction of used overrides that were correct.
func (s *Stats) Accuracy() float64 {
	if s.Precomputed == 0 {
		return 1
	}
	return float64(s.PreCorrect) / float64(s.Precomputed)
}

// Coverage returns the fraction of would-be mispredictions fixed.
func (s *Stats) Coverage() float64 {
	total := s.CoveredMisp + s.IncorrectMisp + s.UncoveredMisp
	if total == 0 {
		return 0
	}
	return float64(s.CoveredMisp) / float64(total)
}

// patEnt is one tagged pattern-table entry: a signed saturating outcome
// counter in [-ConfMax, ConfMax] (positive = taken).
type patEnt struct {
	tag uint16
	ctr int16
}

// branchEnt is one tracked H2P branch: its retired local history and its
// dedicated pattern table.
type branchEnt struct {
	hist uint64
	tbl  []patEnt
	last uint64 // LRU tick
}

type popRec struct {
	seq uint64
	pc  uint64
}

// B is the Bullseye companion.
type B struct {
	Cfg  spec.Bullseye
	core *pipeline.Core

	h2p      core.H2PTable
	branches map[uint64]*branchEnt
	lruTick  uint64

	// Instance accounting: inFlight counts the fetched-but-not-retired
	// instances per branch PC — the lookahead depth a fetch-time prediction
	// must chain across. The counters mirror specLog exactly (incremented on
	// append, decremented on retire-prune and flush-rewind), so they can
	// never drift no matter how fetches, retires, and flushes interleave.
	inFlight map[uint64]uint64
	specLog  []popRec

	retired   uint64
	nextDecay uint64

	ivLast struct {
		covered, incorrect, uncovered uint64
		precomputed, preCorrect       uint64
	}

	Stats Stats
}

// New builds a Bullseye predictor and attaches it to the core. Its H2P
// table has its own geometry and TEA's Table II counters.
func New(cfg spec.Bullseye, c *pipeline.Core) *B {
	tableII := spec.DefaultTEA()
	b := &B{
		Cfg:       cfg,
		core:      c,
		h2p:       core.NewH2PTable(cfg.H2PSets, cfg.H2PWays, tableII.H2PMax, tableII.H2PThreshold),
		branches:  make(map[uint64]*branchEnt),
		inFlight:  make(map[uint64]uint64),
		nextDecay: cfg.H2PDecayPeriod,
	}
	c.Attach(b)
	return b
}

func init() {
	companion.Register(spec.CompanionBullseye,
		func(s *spec.MachineSpec, c *pipeline.Core, _ companion.Options) (companion.Instance, error) {
			return bInstance{New(*s.Companion.Bullseye, c)}, nil
		})
}

// bInstance adapts Bullseye to the companion registry.
type bInstance struct{ b *B }

func (i bInstance) Metrics() companion.Metrics {
	s := &i.b.Stats
	m := companion.Metrics{
		Accuracy:  s.Accuracy(),
		Coverage:  s.Coverage(),
		Covered:   s.CoveredMisp,
		Incorrect: s.IncorrectMisp,
		Uncovered: s.UncoveredMisp,
	}
	if s.CoveredMisp > 0 {
		m.AvgCyclesSaved = float64(s.CyclesSaved) / float64(s.CoveredMisp)
	}
	return m
}

// slot hashes a (masked) history into the branch's pattern table, returning
// the entry and whether its tag matches.
func (b *B) slot(e *branchEnt, hist uint64) (*patEnt, bool) {
	h := hist & (uint64(1)<<uint(b.Cfg.HistBits) - 1)
	x := (h + 1) * 0x9E3779B97F4A7C15
	pe := &e.tbl[int(x>>24)&(len(e.tbl)-1)]
	return pe, pe.tag == uint16(x>>48)
}

// predictAhead chains the pattern table depth steps past the retired
// history, feeding each predicted outcome back into the history. Any tag
// miss or low-confidence step along the chain abstains.
func (b *B) predictAhead(e *branchEnt, depth uint64) (taken, ok bool) {
	hist := e.hist
	for i := uint64(0); i < depth; i++ {
		pe, hit := b.slot(e, hist)
		if !hit {
			return false, false
		}
		c := int(pe.ctr)
		if c < 0 {
			c = -c
		}
		if c < b.Cfg.ConfThreshold {
			return false, false
		}
		taken = pe.ctr > 0
		hist = hist << 1
		if taken {
			hist |= 1
		}
	}
	return taken, true
}

// train updates the pattern table at the retired history with the actual
// outcome and shifts the outcome into the history.
func (b *B) train(e *branchEnt, taken bool) {
	pe, hit := b.slot(e, e.hist)
	if !hit {
		h := (e.hist&(uint64(1)<<uint(b.Cfg.HistBits)-1) + 1) * 0x9E3779B97F4A7C15
		pe.tag, pe.ctr = uint16(h>>48), 0
	}
	if taken {
		if int(pe.ctr) < b.Cfg.ConfMax {
			pe.ctr++
		}
	} else {
		if int(pe.ctr) > -b.Cfg.ConfMax {
			pe.ctr--
		}
	}
	e.hist = e.hist << 1
	if taken {
		e.hist |= 1
	}
}

// alloc claims a branch slot, evicting the LRU one at capacity.
func (b *B) alloc(pc uint64) *branchEnt {
	if len(b.branches) >= b.Cfg.MaxBranches {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		for vpc, ve := range b.branches {
			if ve.last < oldest {
				oldest, victim = ve.last, vpc
			}
		}
		delete(b.branches, victim)
		b.Stats.Evictions++
	}
	e := &branchEnt{tbl: make([]patEnt, b.Cfg.TableEntries)}
	b.branches[pc] = e
	b.Stats.Allocs++
	return e
}

// --- Companion interface ---

// OnBlock is unused.
func (b *B) OnBlock(*pipeline.FetchBlock) {}

// OnMainFetch is unused.
func (b *B) OnMainFetch(*pipeline.Uop) {}

// OverridePrediction counts this dynamic instance and, when the chained
// table lookup clears the confidence threshold at the instance's in-flight
// depth, overrides TAGE.
func (b *B) OverridePrediction(pc uint64, seq uint64) (bool, bool) {
	e := b.branches[pc]
	if e == nil {
		return false, false
	}
	b.inFlight[pc]++
	b.specLog = append(b.specLog, popRec{seq: seq, pc: pc})
	// This instance included: the first tracked in-flight instance is one
	// step past the retired history.
	depth := b.inFlight[pc]
	taken, ok := b.predictAhead(e, depth)
	if ok {
		b.Stats.Overrides++
	}
	return taken, ok
}

// OnRetire trains the pattern tables and the H2P filter, keeps the instance
// counters aligned, and classifies override outcomes.
func (b *B) OnRetire(u *pipeline.Uop) {
	b.retired++
	if b.retired >= b.nextDecay {
		b.nextDecay += b.Cfg.H2PDecayPeriod
		b.h2p.Decay()
	}

	// Prune the speculative-instance log: retired branches can no longer be
	// rewound by a flush, and they leave the in-flight window.
	cut := 0
	for cut < len(b.specLog) && b.specLog[cut].seq <= u.Seq {
		b.inFlight[b.specLog[cut].pc]--
		cut++
	}
	if cut > 0 {
		// Compact in place so appends keep reusing one backing array.
		b.specLog = b.specLog[:copy(b.specLog, b.specLog[cut:])]
	}

	if !u.In.IsBranch() || u.Rec == nil {
		return
	}
	if u.In.IsCondBranch() {
		e := b.branches[u.PC]
		if e == nil && b.h2p.IsH2P(u.PC) {
			e = b.alloc(u.PC)
		}
		if e != nil {
			b.lruTick++
			e.last = b.lruTick
			b.train(e, u.Rec.ActualTaken)
		}
	}
	b.accountBranch(u.Rec)
	if wouldMispredict(u.Rec) {
		b.h2p.RecordMispredict(u.PC)
	}
}

// wouldMispredict reports whether the underlying TAGE prediction (before
// any override) disagreed with the actual outcome.
func wouldMispredict(rec *pipeline.BranchRec) bool {
	if !rec.Pred.BTBHit || !rec.In.IsCondBranch() {
		return rec.WasMispred
	}
	return rec.Pred.Cond.Pred != rec.ActualTaken
}

// accountBranch classifies the override outcome against the would-be TAGE
// prediction, mirroring the TEA coverage categories.
func (b *B) accountBranch(rec *pipeline.BranchRec) {
	if !rec.In.IsCondBranch() {
		if rec.WasMispred {
			b.Stats.UncoveredMisp++
		}
		return
	}
	tageWrong := wouldMispredict(rec)
	if rec.Precomputed {
		b.Stats.Precomputed++
		if rec.PreTaken == rec.ActualTaken {
			b.Stats.PreCorrect++
			if tageWrong {
				b.Stats.CoveredMisp++
				// A fetch-time override removes the full penalty (§II-C).
				b.Stats.CyclesSaved += 15
			}
		} else {
			b.Stats.PreWrong++
			if !tageWrong {
				b.Stats.IncorrectMisp++
			} else {
				b.Stats.UncoveredMisp++
			}
		}
		return
	}
	if tageWrong {
		b.Stats.UncoveredMisp++
	}
}

// OnFlush rewinds the speculative instance counts for squashed instances.
// Tables and histories hold retired state only, so they survive untouched.
func (b *B) OnFlush(seq uint64, branchRenamed bool) {
	for len(b.specLog) > 0 {
		last := b.specLog[len(b.specLog)-1]
		if last.seq <= seq {
			break
		}
		b.inFlight[last.pc]--
		b.specLog = b.specLog[:len(b.specLog)-1]
	}
}

// Tick is a no-op: Bullseye has no per-cycle engine — all work happens in
// the fetch and retire hooks.
func (b *B) Tick() {}

// OnInterval annotates a telemetry sample with the predictor's per-interval
// override coverage and accuracy.
func (b *B) OnInterval(iv *telemetry.Interval) {
	s := &b.Stats
	last := &b.ivLast
	dCov := s.CoveredMisp - last.covered
	dInc := s.IncorrectMisp - last.incorrect
	dUnc := s.UncoveredMisp - last.uncovered
	if total := dCov + dInc + dUnc; total > 0 {
		iv.Coverage = float64(dCov) / float64(total)
	}
	if dPre := s.Precomputed - last.precomputed; dPre > 0 {
		iv.Accuracy = float64(s.PreCorrect-last.preCorrect) / float64(dPre)
	} else {
		iv.Accuracy = 1
	}
	last.covered, last.incorrect, last.uncovered = s.CoveredMisp, s.IncorrectMisp, s.UncoveredMisp
	last.precomputed, last.preCorrect = s.Precomputed, s.PreCorrect
}

// Quiescent implements the idle-skip contract: Tick is a pure no-op, so the
// predictor is always quiescent and never self-schedules a wake (fetches
// and retires end idle windows on their own).
func (b *B) Quiescent(uint64) (bool, uint64) { return true, 0 }

// OnSkip is a no-op: there is no per-cycle bookkeeping.
func (b *B) OnSkip(uint64) {}

// The backend hooks are unused: Bullseye never inserts uops.
func (b *B) LoadValue(uint64, int) (uint64, bool)       { return 0, false }
func (b *B) OlderStorePending(uint64) bool              { return false }
func (b *B) StoreExec(uint64, uint64, int)              {}
func (b *B) BranchResolved(*pipeline.Uop, bool, uint64) {}
func (b *B) UopExecuted(*pipeline.Uop)                  {}
func (b *B) UopSquashed(*pipeline.Uop)                  {}
func (b *B) PrecomputationWrong(uint64)                 {}
