// Package ldbp implements a load-driven branch prediction companion
// (Sridhar et al.): at retirement it walks the retired-instruction window
// backward from each H2P conditional branch looking for a short
// load→ALU→branch dependence chain with a single trigger load. Once the
// trigger load's address stream shows a stable stride, each retiring
// trigger load precomputes the branch outcome several iterations ahead by
// reading committed memory at addr + stride·d and emulating the chain, and
// the queued directions override TAGE at fetch time — the natural fit for
// our GAP kernels, whose data-dependent branches hang off strided loads.
//
// Like Branch Runahead, predictions are tagged with the dynamic instance
// number of the branch (specIdx/retireIdx, rewound on flushes) so an
// override lands on exactly the instance it was computed for.
package ldbp

import (
	"teasim/internal/companion"
	"teasim/internal/core"
	"teasim/internal/emu"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/internal/ring"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Stats counts chain and prediction activity plus the retired-misprediction
// classification (the shared Fig. 7 buckets).
type Stats struct {
	ChainsCaptured  uint64
	ChainsDisabled  uint64
	Precomputations uint64 // chain emulations run
	ChainUops       uint64 // uops emulated across all precomputations
	Overrides       uint64 // fetch-time overrides offered

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

type chainUop struct {
	pc uint64
	in *isa.Inst
}

// chain is one captured load→branch dependence chain. uops holds the ALU
// ops between the trigger load and the branch in program order, with the
// branch last; every live-in besides the load's destination is seeded from
// the retired architectural registers at precompute time.
type chain struct {
	branchPC uint64
	loadPC   uint64
	loadIn   *isa.Inst
	uops     []chainUop

	// Trigger-load stride tracking.
	lastAddr   uint64
	haveAddr   bool
	stride     int64
	strideRuns int

	wrongStreak int
	disabled    bool
}

type qEntry struct {
	tag   uint64
	taken bool
}

type popRec struct {
	seq uint64
	pc  uint64
}

type winEntry struct {
	pc uint64
	in *isa.Inst
}

// L is the load-driven branch prediction companion.
type L struct {
	Cfg  spec.LDBP
	core *pipeline.Core

	h2p    core.H2PTable
	chains map[uint64]*chain   // by branch PC
	byLoad map[uint64][]*chain // trigger load PC → chains

	// Retired-instruction window (WindowSize entries); rev is capture's
	// reused scratch.
	window ring.Ring[winEntry]
	rev    []chainUop

	queues map[uint64][]qEntry

	specIdx   map[uint64]uint64
	retireIdx map[uint64]uint64
	specLog   []popRec

	archRegs [isa.NumRegs]uint64

	retired   uint64
	nextDecay uint64

	ivLast struct {
		covered, incorrect, uncovered uint64
		precomputed, preCorrect       uint64
	}

	Stats Stats
}

// New builds an LDBP engine and attaches it to the core. Its H2P table has
// its own geometry and TEA's Table II counters.
func New(cfg spec.LDBP, c *pipeline.Core) *L {
	tableII := spec.DefaultTEA()
	l := &L{
		Cfg:       cfg,
		core:      c,
		h2p:       core.NewH2PTable(cfg.H2PSets, cfg.H2PWays, tableII.H2PMax, tableII.H2PThreshold),
		chains:    make(map[uint64]*chain),
		byLoad:    make(map[uint64][]*chain),
		queues:    make(map[uint64][]qEntry),
		specIdx:   make(map[uint64]uint64),
		retireIdx: make(map[uint64]uint64),
		nextDecay: cfg.H2PDecayPeriod,
		window:    ring.New[winEntry](cfg.WindowSize),
	}
	c.Attach(l)
	return l
}

func init() {
	companion.Register(spec.CompanionLDBP,
		func(s *spec.MachineSpec, c *pipeline.Core, _ companion.Options) (companion.Instance, error) {
			return lInstance{New(*s.Companion.LDBP, c)}, nil
		})
}

// lInstance adapts LDBP to the companion registry.
type lInstance struct{ l *L }

func (i lInstance) Metrics() companion.Metrics {
	s := &i.l.Stats
	m := companion.Metrics{
		Accuracy:  s.Accuracy(),
		Coverage:  s.Coverage(),
		Covered:   s.CoveredMisp,
		Incorrect: s.IncorrectMisp,
		Uncovered: s.UncoveredMisp,
		ExtraUops: s.ChainUops,
	}
	if s.CoveredMisp > 0 {
		m.AvgCyclesSaved = float64(s.CyclesSaved) / float64(s.CoveredMisp)
	}
	return m
}

// capture walks the retired-instruction window backward from the H2P
// branch at pc, collecting the dependence chain down to a single trigger
// load. Chains with stores, non-emulable producers, more than one load, or
// more than MaxChainUops uops are rejected.
func (l *L) capture(pc uint64, in *isa.Inst) {
	if len(l.chains) >= l.Cfg.MaxChains {
		return
	}
	var live uint32
	addReg := func(r isa.Reg) {
		if r != isa.R0 {
			live |= 1 << uint(r)
		}
	}
	delReg := func(r isa.Reg) { live &^= 1 << uint(r) }
	hasReg := func(r isa.Reg) bool { return r != isa.R0 && live&(1<<uint(r)) != 0 }

	addReg(in.Rs1)
	addReg(in.Rs2)

	rev := l.rev[:0]
	var loadPC uint64
	var loadIn *isa.Inst
	for i := l.window.Len() - 1; i >= 0 && loadIn == nil; i-- {
		e := l.window.At(i)
		if e.pc == pc {
			return // crossed into the previous iteration without a load
		}
		if !e.in.HasDest() || e.in.Rd == isa.R0 || !hasReg(e.in.Rd) {
			continue
		}
		if e.in.IsLoad() {
			loadPC, loadIn = e.pc, e.in
			delReg(e.in.Rd)
			break
		}
		if e.in.IsBranch() || e.in.IsStore() {
			return
		}
		if len(rev) >= l.Cfg.MaxChainUops {
			return
		}
		rev = append(rev, chainUop{pc: e.pc, in: e.in})
		l.rev = rev // keep the grown scratch even if the walk fails later
		delReg(e.in.Rd)
		addReg(e.in.Rs1)
		addReg(e.in.Rs2)
	}
	if loadIn == nil {
		return
	}

	ch := &chain{branchPC: pc, loadPC: loadPC, loadIn: loadIn,
		uops: make([]chainUop, 0, len(rev)+1)}
	for i := len(rev) - 1; i >= 0; i-- {
		ch.uops = append(ch.uops, rev[i])
	}
	ch.uops = append(ch.uops, chainUop{pc: pc, in: in})
	l.chains[pc] = ch
	l.byLoad[loadPC] = append(l.byLoad[loadPC], ch)
	l.Stats.ChainsCaptured++
}

// onLoadRetire updates the stride trackers of every chain triggered by this
// load and, once the stride is confirmed, precomputes the chained branch
// Lookahead iterations ahead off committed memory.
func (l *L) onLoadRetire(pc uint64, addr uint64) {
	for _, ch := range l.byLoad[pc] {
		if ch.disabled {
			continue
		}
		if ch.haveAddr {
			d := int64(addr) - int64(ch.lastAddr)
			if d == ch.stride {
				if ch.strideRuns < l.Cfg.StrideConf {
					ch.strideRuns++
				}
			} else {
				ch.stride, ch.strideRuns = d, 1
			}
		}
		ch.lastAddr, ch.haveAddr = addr, true
		if ch.strideRuns >= l.Cfg.StrideConf && ch.stride != 0 {
			l.precompute(ch)
		}
	}
}

// precompute emulates the chain at addr + stride·d for d = 0..Lookahead (d=0
// covers the not-yet-retired branch of the current iteration), tagging each
// outcome with the future branch instance it predicts.
func (l *L) precompute(ch *chain) {
	base := l.retireIdx[ch.branchPC]
	q := l.queues[ch.branchPC][:0]
	for d := 0; d <= l.Cfg.Lookahead && len(q) < l.Cfg.QueueDepth; d++ {
		addr := uint64(int64(ch.lastAddr) + ch.stride*int64(d))
		val := l.core.Mem.Read(addr, ch.loadIn.MemBytes())
		regs := l.archRegs
		if ch.loadIn.Rd != isa.R0 {
			regs[ch.loadIn.Rd] = val
		}
		l.Stats.Precomputations++
		l.Stats.ChainUops += uint64(len(ch.uops)) + 1
		taken := false
		for i, cu := range ch.uops {
			in := cu.in
			if i == len(ch.uops)-1 {
				taken, _ = emu.BranchOutcome(in, regs[in.Rs1], regs[in.Rs2])
				break
			}
			if v, ok := emu.Eval(in, regs[in.Rs1], regs[in.Rs2], cu.pc); ok && in.Rd != isa.R0 {
				regs[in.Rd] = v
			}
		}
		// One branch instance per trigger-load instance: the d-th future
		// load predicts the d-th future branch instance.
		q = append(q, qEntry{tag: base + 1 + uint64(d), taken: taken})
	}
	l.queues[ch.branchPC] = q
}

// --- Companion interface ---

// OnBlock is unused.
func (l *L) OnBlock(*pipeline.FetchBlock) {}

// OnMainFetch is unused.
func (l *L) OnMainFetch(*pipeline.Uop) {}

// OverridePrediction counts this dynamic instance of the branch and, when a
// queued direction is available for exactly this instance, overrides TAGE.
func (l *L) OverridePrediction(pc uint64, seq uint64) (bool, bool) {
	if _, tracked := l.specIdx[pc]; !tracked {
		if !l.h2p.IsH2P(pc) {
			return false, false
		}
	}
	l.specIdx[pc]++
	l.specLog = append(l.specLog, popRec{seq: seq, pc: pc})
	idx := l.specIdx[pc]
	for _, e := range l.queues[pc] {
		if e.tag == idx {
			l.Stats.Overrides++
			return e.taken, true
		}
	}
	return false, false
}

// OnRetire tracks architectural state, trains the H2P filter, captures
// chains, fires precomputations off retiring trigger loads, and classifies
// override outcomes.
func (l *L) OnRetire(u *pipeline.Uop) {
	l.retired++
	if l.retired >= l.nextDecay {
		l.nextDecay += l.Cfg.H2PDecayPeriod
		l.h2p.Decay()
	}
	if u.HasDest {
		l.archRegs[u.In.Rd] = l.core.PRF.Val[u.Prd]
	}

	if len(l.specLog) > 0 {
		cut := 0
		for cut < len(l.specLog) && l.specLog[cut].seq <= u.Seq {
			cut++
		}
		// Compact in place so appends keep reusing one backing array.
		l.specLog = l.specLog[:copy(l.specLog, l.specLog[cut:])]
	}

	if u.In.IsLoad() {
		l.onLoadRetire(u.PC, u.Addr)
	}

	isBranch := u.In.IsBranch()
	if isBranch && u.Rec != nil {
		if _, tracked := l.specIdx[u.PC]; tracked && u.In.IsCondBranch() {
			if l.specIdx[u.PC] <= l.retireIdx[u.PC] {
				l.specIdx[u.PC]++
			}
			l.retireIdx[u.PC]++
			l.pruneQueue(u.PC)
		}
		l.accountBranch(u.Rec)
		if wouldMispredict(u.Rec) {
			l.h2p.RecordMispredict(u.PC)
		}
		if u.In.IsCondBranch() && l.h2p.IsH2P(u.PC) && l.chains[u.PC] == nil {
			l.capture(u.PC, u.In)
		}
	}

	l.window.Push(winEntry{pc: u.PC, in: u.In})
}

// pruneQueue drops entries for instances that have already retired.
func (l *L) pruneQueue(pc uint64) {
	q := l.queues[pc]
	if len(q) == 0 {
		return
	}
	floor := l.retireIdx[pc]
	kept := q[:0]
	for _, e := range q {
		if e.tag > floor {
			kept = append(kept, e)
		}
	}
	l.queues[pc] = kept
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
// prediction, mirroring the TEA coverage categories, and disables chains
// that go wrong repeatedly.
func (l *L) accountBranch(rec *pipeline.BranchRec) {
	if !rec.In.IsCondBranch() {
		if rec.WasMispred {
			l.Stats.UncoveredMisp++
		}
		return
	}
	tageWrong := wouldMispredict(rec)
	if rec.Precomputed {
		l.Stats.Precomputed++
		if rec.PreTaken == rec.ActualTaken {
			l.Stats.PreCorrect++
			if ch := l.chains[rec.PC]; ch != nil {
				ch.wrongStreak = 0
			}
			if tageWrong {
				l.Stats.CoveredMisp++
				// A fetch-time override removes the full penalty (§II-C).
				l.Stats.CyclesSaved += 15
			}
		} else {
			l.Stats.PreWrong++
			if !tageWrong {
				l.Stats.IncorrectMisp++
			} else {
				l.Stats.UncoveredMisp++
			}
			if ch := l.chains[rec.PC]; ch != nil && !ch.disabled {
				ch.wrongStreak++
				if ch.wrongStreak >= 4 {
					ch.disabled = true
					l.Stats.ChainsDisabled++
					delete(l.queues, rec.PC)
				}
			}
		}
		return
	}
	if tageWrong {
		l.Stats.UncoveredMisp++
	}
}

// OnFlush rewinds the speculative instance counts for squashed instances.
// Queued directions survive: they were computed from retired state.
func (l *L) OnFlush(seq uint64, branchRenamed bool) {
	for len(l.specLog) > 0 {
		last := l.specLog[len(l.specLog)-1]
		if last.seq <= seq {
			break
		}
		l.specIdx[last.pc]--
		l.specLog = l.specLog[:len(l.specLog)-1]
	}
}

// Tick is a no-op: LDBP precomputes at retirement, not per cycle.
func (l *L) Tick() {}

// OnInterval annotates a telemetry sample with the engine's per-interval
// override coverage and accuracy.
func (l *L) OnInterval(iv *telemetry.Interval) {
	s := &l.Stats
	last := &l.ivLast
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
// engine is always quiescent (retires end idle windows on their own).
func (l *L) Quiescent(uint64) (bool, uint64) { return true, 0 }

// OnSkip is a no-op: there is no per-cycle bookkeeping.
func (l *L) OnSkip(uint64) {}

// The backend hooks are unused: LDBP never inserts uops.
func (l *L) LoadValue(uint64, int) (uint64, bool)       { return 0, false }
func (l *L) OlderStorePending(uint64) bool              { return false }
func (l *L) StoreExec(uint64, uint64, int)              {}
func (l *L) BranchResolved(*pipeline.Uop, bool, uint64) {}
func (l *L) UopExecuted(*pipeline.Uop)                  {}
func (l *L) UopSquashed(*pipeline.Uop)                  {}
func (l *L) PrecomputationWrong(uint64)                 {}
