package pipeline

import (
	"fmt"

	"teasim/internal/bpred"
	"teasim/internal/emu"
	"teasim/internal/isa"
	"teasim/internal/mem"
	"teasim/internal/slab"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Core is the out-of-order core simulator.
type Core struct {
	Cfg  Config
	Prog *isa.Program
	Mem  *mem.Image // committed architectural memory
	Hier *mem.Hierarchy
	BP   *bpred.Predictor

	Cycle uint64
	seq   uint64 // next sequence number to assign

	// Decoupled BP stream state.
	streamPC         uint64
	streamStalled    bool
	fetchQ           queue[*FetchBlock]
	mainOff          int // instruction offset into fetchQ[0] for main fetch
	teaBlk           int // companion cursor: block index into fetchQ
	teaOff           int
	teaCursorInvalid bool
	teaActive        bool
	teaPopWait       int
	fetchStallTil    uint64
	streamResumeAt   uint64

	// In-flight branch queue: every branch the BP has emitted, in age
	// (= ascending sequence) order. Retirement pops the head, flushes
	// truncate the tail, and point lookups binary-search by Seq — no
	// per-branch map traffic on the simulation hot path.
	recList queue[*BranchRec]

	// Frontend pipe: fetched uops waiting to become rename-ready.
	frontQ queue[*Uop]

	// Rename state. PRF points at prf, which lives inline.
	rat [isa.NumRegs]uint16
	PRF *PRF
	prf PRF
	rob queue[*Uop]

	// Backend. rs keeps insertion order for flush walks; it is compacted
	// lazily (see sched.go), so dead entries are tolerated everywhere via
	// the rsStamps guard.
	rs          []*Uop
	rsStamps    []uint64 // rsStamps[i] == rs[i].rsStamp while entry i is current
	rsStampCtr  uint64
	rsMainCount int
	rsTEACount  int
	mainRSCap   int

	// Scheduler state (sched_bitset.go). Entries live in fixed slots
	// allocated from a free bitmap; the ready lists hold packed
	// (stamp<<16|slot) references, so age order is numeric order. wHead
	// holds, per physical register, the first slot of its waiter list
	// (linked through the slots; noSlot when empty).
	slots       []schedSlot
	slotFree    []uint64
	readyList   []uint64
	readySorted int // prefix of readyList already in stamp order
	wHead       []int32
	// ageHead/ageTail bound the age list: every live companion residency,
	// linked through the slots in insertion (= fetch) order, for the
	// RS-timeout sweep.
	ageHead, ageTail int32
	candScratch      []*Uop // per-cycle select candidates, reused
	// Companion residencies keep their own ready list, so main select never
	// filters TEA refs (or revalidates anything — main readiness is
	// monotonic) and TEA select never walks main refs. execute() consumes
	// the two stamp-sorted groups in one pass each.
	teaReadyList   []uint64
	teaReadySorted int // prefix of teaReadyList already in stamp order
	teaCandScratch []*Uop
	// sqParked holds refs of ready main loads whose SQ-disambiguation scan
	// verdict is memoized as "blocked" (see storeEpoch): select skips them
	// entirely and re-admits the whole list when the epoch moves.
	sqParked    []uint64
	parkedEpoch uint64
	// memParked holds refs of ready main loads with a live MSHR-full memo
	// (u.memWake, see issueLoad): select skips them until the earliest memo
	// expires, then re-admits the whole list (late entries re-park).
	memParked     []uint64
	memParkedWake uint64

	lqCount int
	sqCount int
	sq      queue[*Uop] // stores in program order, executed ⇒ address known
	// storeEpoch versions the store-queue disambiguation inputs: it bumps
	// whenever the SQ population changes (rename push, retire pop, flush
	// truncate) or a store's address becomes known (writeback). A load's
	// "blocked" scan verdict is valid while the epoch is unchanged, so
	// blocked loads retry in O(1) instead of rescanning the SQ every cycle.
	storeEpoch uint64
	// complHead holds, per completion-ring slot, an intrusive list (via
	// Uop.complNext) of the uops scheduled to write back at that cycle.
	complHead    [completionRing]*Uop
	complScratch []*Uop // drain buffer, reused each cycle
	// completionsPending counts uops currently scheduled in the completions
	// ring (flushes never remove entries — squashed uops drain through
	// complete()).
	completionsPending int
	// complMask is a 1-bit-per-slot occupancy bitmap of the ring, scanned
	// circularly with bits.TrailingZeros64 for the earliest outstanding
	// writeback — the idle-cycle scanner's wake source, replacing a walk
	// over the 16384 ring slots.
	complMask [completionRing / 64]uint64

	pendingRedirects []pendingRedirect

	// Issue-slot sharing between companion and main rename (per cycle).
	issueSlotsUsed int

	comp         Companion
	compAttached bool
	teaRSCap     int
	teaPRBase    int
	teaPRCount   int

	// Co-simulation.
	gold *emu.Machine

	// dec is the program's predecoded template table (the decoded-block
	// cache). codeBase/codeEnd bound the code segment for the
	// self-modifying-store assertion.
	dec      emu.Decoded
	codeBase uint64
	codeEnd  uint64

	pool pools

	// Telemetry (nil = disabled; see Config.Telemetry).
	telem      *telemetry.Collector
	ivLast     ivSnapshot
	earlyFlush bool // inside EarlyFlush: flushAfter emits EvEarlyFlush

	halted bool

	// Paranoia-mode scratch (paranoia.go), reused across checks so the
	// checker allocates nothing in steady state. Nil unless Cfg.Paranoia.
	paranoiaCnt map[*Uop]int
	paranoiaReg []uint8

	Stats Stats

	// Idle-cycle fast-forward metrics (see skip.go). Deliberately NOT part
	// of Stats: Stats must stay bit-identical with skipping on and off.
	IdleSkips         uint64 // fast-forward jumps taken
	IdleCyclesSkipped uint64 // dead cycles never individually ticked
}

type pendingRedirect struct {
	atCycle uint64
	seq     uint64
	pc      uint64
	target  uint64
}

// tableIIPRegs is the companion register pool of a machine without a TEA
// section: Table II's partition.
var tableIIPRegs = spec.DefaultTEA().PRPartition

// New builds a core for prog with the given configuration. A fresh memory
// image is initialized from the program's data segments.
//
// Every structure the configuration bounds is sized here, and the lists of
// one element type are carved from one backing array (internal/slab), so
// building a core costs a fixed handful of allocations whatever the machine,
// and a running core allocates only if a pool outgrows its in-flight bound.
func New(cfg Config, prog *isa.Program) *Core {
	teaRegs := tableIIPRegs
	if t := cfg.Companion.TEA; t != nil {
		teaRegs = t.PRPartition
	}
	c := &Core{
		Cfg:        cfg,
		Prog:       prog,
		Mem:        mem.LoadImage(prog.Data),
		Hier:       mem.NewHierarchy(cfg.Memory),
		BP:         bpred.NewWithConfig(cfg.Predictor),
		streamPC:   prog.Entry,
		mainRSCap:  cfg.RSSize,
		teaPRBase:  cfg.NumPRegs,
		teaPRCount: teaRegs,
		comp:       nopCompanion{},
		dec:        emu.Predecode(prog),
		storeEpoch: 1,
		codeBase:   prog.CodeBase,
		codeEnd:    prog.CodeEnd(),
	}
	c.PRF = &c.prf
	c.carve(teaRegs)
	for i := 0; i < isa.NumRegs; i++ {
		c.rat[i] = uint16(i)
	}
	if cfg.CoSim {
		c.gold = emu.NewWithMem(prog, c.Mem.Clone())
	}
	if cfg.Telemetry != nil {
		c.telem = cfg.Telemetry
		c.telemRegister()
	}
	return c
}

// companionReserve estimates the most backend entries a companion holds
// beside the main thread's: a dedicated engine's RS reservation (TEA
// reserves 192). Structures sized from it still grow if a configuration
// exceeds it.
const companionReserve = 256

// rsBound is the most RS residencies a core holds at once: the main
// partition plus a dedicated companion engine's reservation.
func rsBound(cfg *Config) int { return cfg.RSSize + companionReserve }

// carve sizes every queue, list, scheduler array, register file and pool
// whose occupancy the configuration bounds, so a warming-up core never
// grows one append by append. Lists of one element type share a backing
// array; each piece's capacity is clipped at its own end, so an append
// past a bound reallocates that piece instead of overrunning its
// neighbour.
func (c *Core) carve(teaRegs int) {
	cfg := &c.Cfg
	nPR := cfg.NumPRegs + teaRegs
	// Scheduler slots cover the combined RS occupancy in whole bitmap
	// words; every list of packed refs holds at most one ref per slot.
	slots := (rsBound(cfg) + 63) &^ 63
	// insertRS compacts rs once it passes twice the live count plus 64.
	rsLen := 2*rsBound(cfg) + 65
	// One completion-ring slot drains at most every uop in flight.
	complLen := cfg.ROBSize + companionReserve
	// The pools' in-flight bounds: uops from fetch to retirement plus a
	// companion's; branch records in the fetch queue (about one per
	// block), the frontend pipe and the ROB; one block per fetch-queue
	// entry.
	uopBound := cfg.FrontQCap + cfg.ROBSize + companionReserve
	recBound := cfg.FetchQueueSize + cfg.FrontQCap + cfg.ROBSize
	blockBound := cfg.FetchQueueSize

	uops := slab.New[*Uop](queueLen(cfg.FrontQCap) + queueLen(cfg.ROBSize) +
		queueLen(cfg.SQSize) + rsLen + complLen + 2*slots + uopBound)
	c.frontQ = newQueue(uops.Empty(queueLen(cfg.FrontQCap)))
	c.rob = newQueue(uops.Empty(queueLen(cfg.ROBSize)))
	c.sq = newQueue(uops.Empty(queueLen(cfg.SQSize)))
	c.rs = uops.Empty(rsLen)
	c.complScratch = uops.Empty(complLen)
	c.candScratch = uops.Empty(slots)
	c.teaCandScratch = uops.Empty(slots)
	c.pool.uops = uops.Empty(uopBound)

	blocks := slab.New[*FetchBlock](queueLen(cfg.FetchQueueSize) + blockBound)
	c.fetchQ = newQueue(blocks.Empty(queueLen(cfg.FetchQueueSize)))
	c.pool.blocks = blocks.Empty(blockBound)

	recs := slab.New[*BranchRec](queueLen(recBound) + recBound)
	c.recList = newQueue(recs.Empty(queueLen(recBound)))
	c.pool.recs = recs.Empty(recBound)

	words := slab.New[uint64](rsLen + slots/64 + 4*slots + nPR)
	c.rsStamps = words.Empty(rsLen)
	c.slotFree = words.Take(slots / 64)
	c.readyList = words.Empty(slots)
	c.sqParked = words.Empty(slots)
	c.memParked = words.Empty(slots)
	c.teaReadyList = words.Empty(slots)
	c.prf.init(cfg.NumPRegs, words.Take(nPR), make([]bool, nPR),
		make([]uint16, 0, max(cfg.NumPRegs-isa.NumRegs, 0)))

	c.initSched(make([]schedSlot, slots), make([]int32, nPR))
	// A decode re-steer waits two cycles; fetch files at most Width a
	// cycle.
	c.pendingRedirects = make([]pendingRedirect, 0, 3*cfg.Width)
	c.pool.init(uopBound, recBound, blockBound, cfg.MaxBlockInstrs)
}

// Attach connects a precomputation companion (TEA thread or runahead).
func (c *Core) Attach(comp Companion) {
	c.comp = comp
	c.compAttached = true
}

// SetPartition reserves (or releases) backend resources for the companion:
// rsReserve RS entries are carved out of the main thread's share while the
// companion is active (paper §IV-E: 192 RS + 192 PRs).
func (c *Core) SetPartition(active bool, rsReserve, prReserve int) {
	c.teaActive = active
	if c.Cfg.Companion.Dedicated {
		// Dedicated engine (§V-D): companion resources are additional; the
		// main thread keeps its full share.
		c.mainRSCap = c.Cfg.RSSize
		c.PRF.SetMainCap(c.Cfg.NumPRegs)
		if active {
			c.teaRSCap = rsReserve
		} else {
			c.teaRSCap = 0
		}
		return
	}
	if active {
		c.mainRSCap = c.Cfg.RSSize - rsReserve
		c.PRF.SetMainCap(c.Cfg.NumPRegs - prReserve)
		c.teaRSCap = rsReserve
	} else {
		c.mainRSCap = c.Cfg.RSSize
		c.PRF.SetMainCap(c.Cfg.NumPRegs)
		c.teaRSCap = 0
	}
}

// Halted reports whether the program's halt instruction has retired.
func (c *Core) Halted() bool { return c.halted }

// Telemetry returns the attached collector (nil when telemetry is off) so
// companions can register their own metrics on its registry.
func (c *Core) Telemetry() *telemetry.Collector { return c.telem }

// Seq returns the next unassigned sequence number (diagnostics).
func (c *Core) Seq() uint64 { return c.seq }

// Branch returns the in-flight branch record for seq, if present. The
// record list is seq-ordered, so the lookup is a binary search.
func (c *Core) Branch(seq uint64) *BranchRec {
	lo, hi := 0, c.recList.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.recList.at(mid).Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.recList.len() {
		if r := c.recList.at(lo); r.Seq == seq {
			return r
		}
	}
	return nil
}

// RATSnapshot copies the current speculative RAT (for the TEA shadow RAT).
func (c *Core) RATSnapshot() [isa.NumRegs]uint16 { return c.rat }

// EarlyFlush issues a companion-triggered early misprediction flush for the
// in-flight branch rec (§IV-F): because the companion's branch carries the
// same timestamp as its main-thread counterpart, the ordinary flush
// mechanism corrects the stream wherever the branch currently is — backend,
// frontend (partial flush), or still in the fetch queue.
func (c *Core) EarlyFlush(rec *BranchRec, taken bool, target uint64) {
	next := target
	if !taken {
		next = rec.PC + isa.InstBytes
	}
	c.Stats.EarlyFlushes++
	c.earlyFlush = true
	c.flushAfter(rec.Seq, next, rec, taken, target)
	c.earlyFlush = false
}

// Run executes until halt, the instruction budget, or the cycle limit.
func (c *Core) Run() error { return c.RunChecked(0, nil) }

// RunChecked is Run with a cooperative cancellation point: every quantum
// cycles it calls check, and a non-nil return aborts the run with that
// error. quantum 0 (or a nil check) disables checking. The quantum bounds
// cancellation latency without putting a call in the per-cycle loop.
//
// Unless Cfg.NoIdleSkip is set, the loop fast-forwards over provably dead
// cycles (see skip.go): after a tick that leaves the machine idle, it jumps
// straight to the earliest wake event instead of re-ticking. Jumps are
// clamped to the next check boundary — a single skip can never overshoot
// the quantum, so cancellation latency stays bounded — and to MaxCycles, so
// the wedge detector fires at exactly the cycle a tick-by-tick run would.
func (c *Core) RunChecked(quantum uint64, check func() error) error {
	if quantum == 0 || check == nil {
		quantum, check = 0, nil
	}
	hb := c.Cfg.Heartbeat
	if hb != nil && quantum == 0 {
		// A heartbeat needs periodic boundaries even without a cancellation
		// check: reuse the standard engine quantum with a no-op check so the
		// loop below stays a single shape.
		quantum = 50_000
		check = func() error { return nil }
	}
	skip := !c.Cfg.NoIdleSkip
	nextCheck := c.Cycle + quantum
	// Probe backoff: idleWake is pure overhead on busy cycles, and busy
	// phases are long, so a failed probe skips the next few cycles' probes
	// (exponential, capped low enough that an idle window is entered at
	// most a few cycles late). Deterministic, and skipping fewer cycles
	// never changes results — only how fast they are reached.
	const probeBackoffCap = 8
	probeAt, backoff := c.Cycle, uint64(1)
	for !c.halted {
		if err := c.Tick(); err != nil {
			return err
		}
		if c.Cfg.MaxInstructions > 0 && c.Stats.Retired >= c.Cfg.MaxInstructions {
			break
		}
		if c.Cfg.MaxCycles > 0 && c.Cycle >= c.Cfg.MaxCycles {
			return fmt.Errorf("pipeline: cycle limit %d reached at %d retired (possible wedge)",
				c.Cfg.MaxCycles, c.Stats.Retired)
		}
		if quantum != 0 && c.Cycle >= nextCheck {
			if err := check(); err != nil {
				return err
			}
			if hb != nil {
				hb.Beat(c.Cycle)
			}
			nextCheck = c.Cycle + quantum
		}
		if !skip || c.Cycle < probeAt {
			continue
		}
		wake, idle := c.idleWake()
		if !idle {
			probeAt = c.Cycle + backoff
			if backoff < probeBackoffCap {
				backoff *= 2
			}
			continue
		}
		backoff = 1
		if c.Cfg.MaxCycles > 0 && wake > c.Cfg.MaxCycles {
			wake = c.Cfg.MaxCycles
		}
		if quantum != 0 && wake > nextCheck {
			wake = nextCheck
		}
		if wake <= c.Cycle {
			continue
		}
		c.skipTo(wake)
		// Re-run the post-tick limit/cancellation logic so a clamped jump
		// observes exactly the cycle numbers a tick-by-tick run would.
		if c.Cfg.MaxCycles > 0 && c.Cycle >= c.Cfg.MaxCycles {
			return fmt.Errorf("pipeline: cycle limit %d reached at %d retired (possible wedge)",
				c.Cfg.MaxCycles, c.Stats.Retired)
		}
		if quantum != 0 && c.Cycle >= nextCheck {
			if err := check(); err != nil {
				return err
			}
			if hb != nil {
				hb.Beat(c.Cycle)
			}
			nextCheck = c.Cycle + quantum
		}
	}
	return nil
}

// Tick advances the core one cycle. Stages run oldest-first so values flow
// one stage per cycle without intra-cycle re-entrancy.
func (c *Core) Tick() error {
	if err := c.retire(); err != nil {
		return err
	}
	c.complete()
	c.execute()
	c.issueSlotsUsed = 0
	c.comp.Tick() // companion fetch/rename: priority access to issue slots
	c.rename()
	c.processRedirects()
	c.fetch()
	c.predict()
	c.Cycle++
	c.Stats.Cycles = c.Cycle
	if c.Cfg.Paranoia {
		c.checkInvariants()
	}
	return nil
}
