// Package runahead implements the Branch Runahead comparison baseline
// (Pruett & Patt, MICRO'21), the prior state of the art the paper evaluates
// against in §V-C and Fig. 8/10.
//
// Branch Runahead identifies H2P branches, captures lightweight dependence
// chains confined between two consecutive dynamic instances of the branch
// (loop-bounded, like the paper's "only loops" ablation), executes them on a
// dedicated dependence-chain engine (its own reservation stations and
// execution units, off the core's shared resources), and forwards computed
// directions through per-branch prediction queues that OVERRIDE the branch
// predictor at fetch time — the timeliness-first design the TEA paper argues
// against.
//
// Alignment between queued directions and dynamic branch instances uses
// instance tags: the core counts each conditional branch instance as the
// decoupled BP walks it (rewinding the count on flushes), and every queue
// entry carries the instance number it predicts. Chains whose live-ins are
// produced only by the chain itself ("independent branches") spawn their
// next instance as soon as the loop-carried registers are computed,
// pipelining several iterations ahead — the merge-point mechanism that gives
// Branch Runahead its strength on simple control flows (§V-C). Chains that
// mispredict repeatedly are disabled, preserving accuracy at the cost of
// coverage (§V-E, Fig. 10b).
package runahead

import (
	"teasim/internal/core"
	"teasim/internal/emu"
	"teasim/internal/isa"
	"teasim/internal/pipeline"
	"teasim/internal/ring"
	"teasim/internal/slab"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Stats mirrors the coverage/accuracy accounting of the TEA thread so
// Fig. 8/10 can compare the two schemes directly. "Covered" means the TAGE
// prediction would have been wrong and the override fixed it.
type Stats struct {
	ChainsCaptured uint64
	Launches       uint64
	EngineUops     uint64
	Overrides      uint64

	Precomputed uint64
	PreCorrect  uint64
	PreWrong    uint64

	CoveredMisp   uint64
	IncorrectMisp uint64 // override made a correct prediction wrong
	UncoveredMisp uint64
	CyclesSaved   uint64 // misprediction penalty removed per covered branch

	ChainsDisabled uint64
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

// chain is one captured dependence chain. Its uops buffer is its own, with
// room for the largest chain a capture keeps, so a recycled chain is
// refilled in place.
type chain struct {
	branchPC     uint64
	uops         []chainUop
	independent  bool
	lastCarryIdx int // last uop writing a loop-carried live-in
	disabled     bool
	wrongStreak  int
	sinceCap     int
	// refs counts what still reaches the chain: its b.chains slot and every
	// live instance running it. In-flight instances read their own
	// chain's disabled flag when they finish, so a recaptured branch gets a
	// new chain; the old one returns to the free list only once refs is 0,
	// when nothing can observe its reuse.
	refs int
}

// instance is one chain execution in flight on the engine. tag is the
// dynamic instance number of the branch this execution predicts.
type instance struct {
	ch      *chain
	tag     uint64
	regs    [isa.NumRegs]uint64
	idx     int
	readyAt uint64
	stores  []storeEntry // private store buffer, one entry per address
	outcome bool
	done    bool
	spawned bool
}

type storeEntry struct {
	addr, val uint64
}

// store records a chain store in the instance's private buffer, replacing
// an earlier store to the same address.
func (ins *instance) store(addr, val uint64) {
	for i := range ins.stores {
		if ins.stores[i].addr == addr {
			ins.stores[i].val = val
			return
		}
	}
	ins.stores = append(ins.stores, storeEntry{addr, val})
}

// storedAt returns the value the instance last stored at addr, if any.
func (ins *instance) storedAt(addr uint64) (uint64, bool) {
	for _, e := range ins.stores {
		if e.addr == addr {
			return e.val, true
		}
	}
	return 0, false
}

type qEntry struct {
	tag   uint64
	taken bool
}

type popRec struct {
	seq uint64
	pc  uint64
}

// BR is the Branch Runahead companion.
type BR struct {
	Cfg  spec.Runahead
	core *pipeline.Core

	h2p    core.H2PTable
	chains map[uint64]*chain
	// freeChains holds chains no slot or instance references (see
	// chain.refs); chainUops is each chain's uop capacity.
	freeChains []*chain
	chainUops  int

	// Retired-instruction window for chain capture (HistSize entries).
	window ring.Ring[winEntry]

	// Capture scratch, reused across captures.
	marked   []bool
	memSrc   map[uint64]bool
	chainPCs map[uint64]bool

	// Dedicated engine state. Instances are pooled: finished and truncated
	// ones go back on free, and spawns is Tick's reused scratch list. New
	// sizes all three, and the chain pool, at their bounds.
	instances []*instance
	free      []*instance
	spawns    []*instance

	// Per-branch prediction queues, instance-tagged.
	queues map[uint64][]qEntry

	// Instance accounting: specIdx counts instances walked by the decoupled
	// BP (rewound on flushes via specLog); retireIdx counts retired ones.
	specIdx   map[uint64]uint64
	retireIdx map[uint64]uint64
	specLog   []popRec

	// Architectural register file tracked at retirement (chain live-ins).
	archRegs [isa.NumRegs]uint64

	retired   uint64
	nextDecay uint64

	// Telemetry interval snapshot (see OnInterval).
	ivLast struct {
		covered, incorrect, uncovered uint64
		precomputed, preCorrect       uint64
	}

	Stats Stats
}

type winEntry struct {
	pc    uint64
	in    *isa.Inst
	addr  uint64
	isH2P bool
}

// New builds a Branch Runahead engine and attaches it to the core. It
// identifies H2P branches with TEA's Table II table and decay period.
//
// The engine's pools are sized here. At most MaxInstances instances are
// live between ticks, and a tick's spawns (one per instance at most) can
// double that until the tick truncates them. A capture runs between ticks,
// so the chains live then are the table's, one per surviving instance, and
// the one being captured. A chain's uops fit in both the uop budget and
// the capture window, and an instance's private store buffer starts with
// room for one store per chain uop (a spawn inherits its parent's stores,
// so a long lineage can outgrow it). Squashable branch instances are at
// most the core's in-flight branch records. The maps are sized for the
// chain table, a chain's uops, and the H2P table's branches.
func New(cfg spec.Runahead, c *pipeline.Core) *BR {
	h2p := spec.DefaultTEA()
	chainUops := min(cfg.MaxChainUops, cfg.HistSize)
	tracked := h2p.H2PSets * h2p.H2PWays
	b := &BR{
		Cfg:       cfg,
		core:      c,
		h2p:       core.NewH2PTable(h2p.H2PSets, h2p.H2PWays, h2p.H2PMax, h2p.H2PThreshold),
		chains:    make(map[uint64]*chain, cfg.MaxChains),
		memSrc:    make(map[uint64]bool, chainUops),
		chainPCs:  make(map[uint64]bool, chainUops),
		queues:    make(map[uint64][]qEntry, cfg.MaxChains),
		specIdx:   make(map[uint64]uint64, tracked),
		retireIdx: make(map[uint64]uint64, tracked),
		nextDecay: h2p.H2PDecayPeriod,
		window:    ring.New[winEntry](cfg.HistSize),
		chainUops: chainUops,
	}
	if cfg.HistSize > 0 {
		b.marked = make([]bool, cfg.HistSize)
	}
	nIns := 2 * cfg.MaxInstances
	inss := make([]instance, nIns)
	ptrs := slab.New[*instance](3*nIns + cfg.MaxInstances)
	b.instances, b.spawns, b.free = ptrs.Empty(nIns), ptrs.Empty(cfg.MaxInstances), ptrs.Empty(nIns)
	stores := slab.New[storeEntry](nIns * b.chainUops)
	for i := range inss {
		inss[i].stores = stores.Empty(b.chainUops)
		b.free = append(b.free, &inss[i])
	}
	nChains := cfg.MaxChains + cfg.MaxInstances + 1
	chains := make([]chain, nChains)
	uops := slab.New[chainUop](nChains * b.chainUops)
	b.freeChains = make([]*chain, 0, nChains)
	for i := range chains {
		chains[i].uops = uops.Empty(b.chainUops)
		b.freeChains = append(b.freeChains, &chains[i])
	}
	cc := &c.Cfg
	b.specLog = make([]popRec, 0, cc.FetchQueueSize+cc.FrontQCap+cc.ROBSize)
	c.Attach(b)
	return b
}

// newChain takes a chain from the pool (or allocates one), reset to an
// empty chain for the branch at pc held by its table slot.
func (b *BR) newChain(pc uint64) *chain {
	var ch *chain
	if n := len(b.freeChains); n > 0 {
		ch = b.freeChains[n-1]
		b.freeChains = b.freeChains[:n-1]
	} else {
		ch = &chain{uops: make([]chainUop, 0, b.chainUops)}
	}
	*ch = chain{branchPC: pc, uops: ch.uops[:0], refs: 1}
	return ch
}

// unref drops one reference to ch, returning it to the pool at the last.
func (b *BR) unref(ch *chain) {
	if ch.refs--; ch.refs == 0 {
		b.freeChains = append(b.freeChains, ch)
	}
}

// newInstance takes an instance from the pool (or allocates one), reset to
// run ch for the given branch instance tag.
func (b *BR) newInstance(ch *chain, tag uint64, regs *[isa.NumRegs]uint64, readyAt uint64) *instance {
	var ins *instance
	if n := len(b.free); n > 0 {
		ins = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		ins = new(instance)
	}
	*ins = instance{ch: ch, tag: tag, regs: *regs, readyAt: readyAt, stores: ins.stores[:0]}
	ch.refs++
	return ins
}

// release returns an instance that left the engine to the pool.
func (b *BR) release(ins *instance) {
	b.unref(ins.ch)
	ins.ch = nil
	b.free = append(b.free, ins)
}

// --- Companion interface ---

// OnBlock is unused.
func (b *BR) OnBlock(*pipeline.FetchBlock) {}

// OnInterval annotates a telemetry sample with the engine's per-interval
// override coverage and accuracy (Branch Runahead has no Block Cache or
// Fill Buffer, so those fields stay zero).
func (b *BR) OnInterval(iv *telemetry.Interval) {
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

// OnMainFetch is unused.
func (b *BR) OnMainFetch(*pipeline.Uop) {}

// OverridePrediction counts this dynamic instance of the branch and, when a
// queued direction is available for exactly this instance, overrides TAGE.
func (b *BR) OverridePrediction(pc uint64, seq uint64) (bool, bool) {
	if _, tracked := b.specIdx[pc]; !tracked {
		// Only track branches once they are hard to predict; this keeps the
		// maps from growing with every cold branch in the program.
		if !b.h2p.IsH2P(pc) {
			return false, false
		}
	}
	b.specIdx[pc]++
	b.specLog = append(b.specLog, popRec{seq: seq, pc: pc})
	idx := b.specIdx[pc]
	for _, e := range b.queues[pc] {
		if e.tag == idx {
			b.Stats.Overrides++
			return e.taken, true
		}
	}
	return false, false
}

// OnRetire tracks architectural state, trains the H2P table, captures and
// launches chains, and classifies override outcomes.
func (b *BR) OnRetire(u *pipeline.Uop) {
	b.retired++
	if b.retired >= b.nextDecay {
		b.nextDecay += 50_000
		b.h2p.Decay()
	}
	if u.HasDest {
		b.archRegs[u.In.Rd] = b.core.PRF.Val[u.Prd]
	}

	// Prune the speculative-instance log: retired branches can no longer be
	// rewound by a flush.
	if len(b.specLog) > 0 {
		cut := 0
		for cut < len(b.specLog) && b.specLog[cut].seq <= u.Seq {
			cut++
		}
		// Compact in place so appends keep reusing one backing array.
		b.specLog = b.specLog[:copy(b.specLog, b.specLog[cut:])]
	}

	isBranch := u.In.IsBranch()
	if isBranch && u.Rec != nil {
		if _, tracked := b.specIdx[u.PC]; tracked && u.In.IsCondBranch() {
			if b.specIdx[u.PC] <= b.retireIdx[u.PC] {
				// This instance entered the pipeline before tracking began
				// (or a rewind over-corrected); keep the counters aligned so
				// specIdx - retireIdx equals the in-flight instance count.
				b.specIdx[u.PC]++
			}
			b.retireIdx[u.PC]++
			b.pruneQueue(u.PC)
		}
		b.accountBranch(u.Rec)
		if wouldMispredict(u.Rec) {
			b.h2p.RecordMispredict(u.PC)
		}
	}

	// Maintain the capture window.
	b.window.Push(winEntry{pc: u.PC, in: u.In, addr: u.Addr,
		isH2P: isBranch && b.h2p.IsH2P(u.PC)})

	if isBranch && b.h2p.IsH2P(u.PC) {
		ch := b.chains[u.PC]
		if ch == nil || ch.sinceCap >= b.Cfg.RecaptureEvery {
			b.capture(u.PC)
			ch = b.chains[u.PC]
		}
		if ch != nil {
			ch.sinceCap++
			b.launch(ch)
		}
	}
}

// pruneQueue drops entries for instances that have already retired.
func (b *BR) pruneQueue(pc uint64) {
	q := b.queues[pc]
	if len(q) == 0 {
		return
	}
	floor := b.retireIdx[pc]
	kept := q[:0]
	for _, e := range q {
		if e.tag > floor {
			kept = append(kept, e)
		}
	}
	b.queues[pc] = kept
}

// wouldMispredict reports whether the underlying TAGE prediction (before any
// override) disagreed with the actual outcome.
func wouldMispredict(rec *pipeline.BranchRec) bool {
	if !rec.Pred.BTBHit || !rec.In.IsCondBranch() {
		return rec.WasMispred
	}
	return rec.Pred.Cond.Pred != rec.ActualTaken
}

// accountBranch classifies the override outcome against the would-be TAGE
// prediction, mirroring the TEA coverage categories.
func (b *BR) accountBranch(rec *pipeline.BranchRec) {
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
			if ch := b.chains[rec.PC]; ch != nil {
				ch.wrongStreak = 0
			}
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
			if ch := b.chains[rec.PC]; ch != nil {
				ch.wrongStreak++
				if ch.wrongStreak >= b.Cfg.DisableAfter && !ch.disabled {
					ch.disabled = true
					b.Stats.ChainsDisabled++
					// Empty the queue but keep its buffer for the
					// branch's next chain.
					b.queues[rec.PC] = b.queues[rec.PC][:0]
				}
			}
		}
		return
	}
	if tageWrong {
		b.Stats.UncoveredMisp++
	}
}

// OnFlush rewinds the speculative instance counts for squashed branch
// instances. Engine instances and queued directions survive: chain seeds
// come from retired (non-speculative) state, so their results stay valid.
func (b *BR) OnFlush(seq uint64, branchRenamed bool) {
	for len(b.specLog) > 0 {
		last := b.specLog[len(b.specLog)-1]
		if last.seq <= seq {
			break
		}
		b.specIdx[last.pc]--
		b.specLog = b.specLog[:len(b.specLog)-1]
	}
}

// Tick advances the dedicated dependence-chain engine by one cycle.
func (b *BR) Tick() {
	if len(b.instances) == 0 {
		return
	}
	budget := b.Cfg.EngineWidth
	now := b.core.Cycle
	live := b.instances[:0]
	spawns := b.spawns[:0]
	for _, ins := range b.instances {
		for budget > 0 && !ins.done && ins.readyAt <= now {
			if sp := b.step(ins); sp != nil {
				spawns = append(spawns, sp)
			}
			budget--
		}
		if ins.done {
			b.finish(ins)
			b.release(ins)
			continue
		}
		live = append(live, ins)
	}
	b.instances = append(live, spawns...)
	b.spawns = spawns[:0]
	if len(b.instances) > b.Cfg.MaxInstances {
		for _, ins := range b.instances[b.Cfg.MaxInstances:] {
			b.release(ins)
		}
		b.instances = b.instances[:b.Cfg.MaxInstances]
	}
}

// step executes one chain uop on the engine; it may spawn the next
// pipelined instance of an independent chain once the loop-carried
// registers are available.
func (b *BR) step(ins *instance) (spawn *instance) {
	b.Stats.EngineUops++
	cu := ins.ch.uops[ins.idx]
	in := cu.in
	now := b.core.Cycle
	rs1, rs2 := ins.regs[in.Rs1], ins.regs[in.Rs2]
	lat := uint64(1)
	switch {
	case in.IsLoad():
		addr := emu.EffAddr(in, rs1)
		var v uint64
		if sv, ok := ins.storedAt(addr); ok && in.MemBytes() == 8 {
			v = sv
		} else {
			v = b.core.Mem.Read(addr, in.MemBytes())
		}
		if res, ok := b.core.Hier.Load(addr, now); ok {
			lat = res.ReadyAt - now
		} else {
			lat = 8 // MSHRs full: retry-equivalent delay
		}
		if in.Rd != isa.R0 {
			ins.regs[in.Rd] = v
		}
	case in.IsStore():
		addr := emu.EffAddr(in, rs1)
		ins.store(addr, rs2)
	case in.IsBranch():
		taken, _ := emu.BranchOutcome(in, rs1, rs2)
		if cu.pc == ins.ch.branchPC && ins.idx == len(ins.ch.uops)-1 {
			ins.outcome = taken
			ins.done = true
		}
	default:
		if v, ok := emu.Eval(in, rs1, rs2, cu.pc); ok && in.Rd != isa.R0 {
			ins.regs[in.Rd] = v
		}
		switch in.Class() {
		case isa.ClassMul:
			lat = 3
		case isa.ClassDiv:
			lat = 12
		case isa.ClassFP:
			lat = 3
		}
	}

	// Pipelined launch for independent chains (merge-point parallelism).
	if ins.ch.independent && !ins.spawned && ins.idx >= ins.ch.lastCarryIdx &&
		len(b.instances) < b.Cfg.MaxInstances &&
		ins.tag+1 <= b.retireIdx[ins.ch.branchPC]+uint64(b.Cfg.QueueDepth) {
		ins.spawned = true
		spawn = b.newInstance(ins.ch, ins.tag+1, &ins.regs, now+1)
		spawn.stores = append(spawn.stores, ins.stores...)
		b.Stats.Launches++
	}

	ins.idx++
	if ins.idx >= len(ins.ch.uops) {
		ins.done = true
	}
	ins.readyAt = now + lat
	return spawn
}

// finish records the computed direction in the branch's tagged queue.
func (b *BR) finish(ins *instance) {
	pc := ins.ch.branchPC
	if ins.ch.disabled {
		return
	}
	if ins.tag <= b.retireIdx[pc] {
		return // the instance already retired: dead on arrival
	}
	q := b.queues[pc]
	for i := range q {
		if q[i].tag == ins.tag {
			q[i].taken = ins.outcome
			return
		}
	}
	if len(q) < b.Cfg.QueueDepth {
		if q == nil {
			q = make([]qEntry, 0, b.Cfg.QueueDepth)
		}
		b.queues[pc] = append(q, qEntry{tag: ins.tag, taken: ins.outcome})
	}
}

// launch starts a chain instance for the next unproduced instance number,
// seeded from the retired architectural state.
func (b *BR) launch(ch *chain) {
	if ch.disabled || len(ch.uops) == 0 {
		return
	}
	if len(b.instances) >= b.Cfg.MaxInstances {
		return
	}
	for _, ins := range b.instances {
		if ins.ch == ch {
			return // pipeline already running for this branch
		}
	}
	pc := ch.branchPC
	// The retire-time architectural state computes exactly the next dynamic
	// instance; if its direction is already queued the pipeline is alive.
	nextTag := b.retireIdx[pc] + 1
	for _, e := range b.queues[pc] {
		if e.tag >= nextTag {
			return
		}
	}
	ins := b.newInstance(ch, nextTag, &b.archRegs, b.core.Cycle+2)
	b.instances = append(b.instances, ins)
	b.Stats.Launches++
}

// Quiescent implements the pipeline's idle-skip contract: the engine's
// Tick can change state only when some chain instance is finished or ready
// to step; otherwise it just rebuilds the instance list in place. New
// instances launch from OnRetire/OverridePrediction, which end the idle
// window on their own.
func (b *BR) Quiescent(now uint64) (bool, uint64) {
	var wake uint64
	for _, ins := range b.instances {
		if ins.done || ins.readyAt <= now {
			return false, 0
		}
		if wake == 0 || ins.readyAt < wake {
			wake = ins.readyAt
		}
	}
	return true, wake
}

// OnSkip is a no-op: the engine keeps no per-cycle counters.
func (b *BR) OnSkip(uint64) {}

// UopExecuted / UopSquashed / LoadValue / StoreExec / BranchResolved are
// unused: Branch Runahead never inserts uops into the shared backend.
func (b *BR) UopExecuted(*pipeline.Uop)                  {}
func (b *BR) PrecomputationWrong(uint64)                 {}
func (b *BR) UopSquashed(*pipeline.Uop)                  {}
func (b *BR) LoadValue(uint64, int) (uint64, bool)       { return 0, false }
func (b *BR) OlderStorePending(uint64) bool              { return false }
func (b *BR) StoreExec(uint64, uint64, int)              {}
func (b *BR) BranchResolved(*pipeline.Uop, bool, uint64) {}
