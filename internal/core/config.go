// Package core implements the paper's primary contribution: the TEA thread —
// a Timely, Efficient, and Accurate precomputation thread for hard-to-predict
// (H2P) branches.
//
// The TEA thread attaches to the baseline out-of-order core
// (internal/pipeline) as a Companion. It identifies H2P branches with a
// table of misprediction counters (§IV-B), traces their dependence chains
// with a Backward Dataflow Walk over a Fill Buffer of retired instructions
// (§III-A, §IV-C), stores basic-block-sized chain segments with combinable
// bit-masks in a Block Cache (§III-E), fetches those segments with a
// dedicated frontend driven by the same decoupled-branch-predictor stream as
// the main thread (§III-B, §IV-D), executes them on shared backend resources
// with issue priority and a reserved partition (§IV-E), and uses the shared
// branch sequence numbers (synchronized timestamps) to issue early
// misprediction flushes through the core's existing flush mechanism (§IV-F).
// Incorrect precomputations are caught by the in-flight branch queue
// fail-safe and by RAT poisoning (§IV-G).
package core

import "teasim/tea/spec"

// Config holds the TEA thread parameters (defaults = Table II) plus the
// ablation switches used by Fig. 10.
type Config struct {
	// H2P table (§IV-B).
	H2PSets        int // 32 sets × 8 ways = 256 entries
	H2PWays        int
	H2PMax         uint8  // 3-bit saturating counter
	H2PThreshold   uint8  // H2P when counter > threshold
	H2PDecayPeriod uint64 // decrement all counters every N retired instrs

	// Fill Buffer and Backward Dataflow Walk (§IV-C).
	FillBufSize   int
	WalkCycles    uint64 // walk duration; retired instrs are dropped meanwhile
	SourceMemSize int    // memory-address entries in the Source List

	// Block Cache (§IV-B/C).
	BlockCacheSets  int // 64 sets × 8 ways = 512 entries
	BlockCacheWays  int
	EmptyTagSets    int // 32 sets × 8 ways = 256 tag-only entries
	EmptyTagWays    int
	MaskResetPeriod uint64 // clear all masks every N retired instrs
	SegMaxUops      int    // chain uops deliverable per cycle

	// Frontend/backend (§IV-D/E).
	FrontLatency uint64 // block-cache read → rename-ready (9-cycle frontend)
	// MaxLeadBlocks bounds the shadow fetch queue: the TEA thread stops
	// fetching when it is this many fetch blocks ahead of the main thread.
	// Bounding the lead bounds the precomputation work lost to each flush.
	MaxLeadBlocks int
	RSPartition   int // reservation stations reserved while active
	PRPartition   int // physical registers reserved while active

	// Store data cache (§IV-E): half-lines of 32 bytes.
	StoreCacheLines int
	// StoreWaitWindow: when conservative load ordering is engaged (see
	// tea.go: it self-enables when precomputation accuracy degrades), a TEA
	// load waits for older in-flight TEA stores within this many sequence
	// numbers.
	StoreWaitWindow int

	// Termination policy (§V-B, §IV-G).
	LateLimit  int // terminate after this many late precomputations
	WrongLimit int // suppress a branch's early flushes after this many
	// fail-safe-detected wrong precomputations (counter decays with the
	// H2P decay period)

	// Ablation switches (Fig. 10).
	OnlyLoops         bool // chains confined between consecutive instances of an H2P branch
	NoMasks           bool // no mask combining; walks seed only at H2P branches
	NoMem             bool // ignore memory dependencies in the walk
	DisableEarlyFlush bool // compute but never flush (prefetch-only, §V-B)

	// Paranoia arms invariant tripwires inside the TEA structures (Block
	// Cache mask/count consistency, Fill Buffer capacity, H2P counter
	// saturation). Checks only read — results are bit-identical — and panic
	// with a "core paranoia:" message on violation. Set by the run config
	// (tea.Config.Paranoia), not by machine presets: checking is a property
	// of the run, not of the simulated machine.
	Paranoia bool
}

// DefaultConfig returns the Table II TEA thread configuration
// (spec.DefaultTEA).
func DefaultConfig() Config { return ConfigFromSpec(spec.DefaultTEA()) }
