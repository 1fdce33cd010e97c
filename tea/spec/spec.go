// Package spec defines the declarative machine configuration tree behind
// every simulation: a MachineSpec describes the frontend, backend, memory
// hierarchy, branch predictor, and precomputation companion of one machine
// point, independent of simulator code.
//
// The package is pure data: specs are built from presets (the named machine
// points behind the paper's tables and figures), loaded from JSON, and
// edited with dotted-path patches ("companion.tea.fill_buf_size=1024").
// Each simulator package takes its section of a resolved spec as its
// configuration (pipeline the core sections, bpred the Predictor, mem the
// Memory, each companion its own section), so a parameter is declared once,
// here; every ablation and sensitivity study is therefore a data change,
// not a code change.
//
// Resolution order for one run (see tea.Config): preset (or an explicit
// spec) → -set patches, then Validate. The resolved spec's Fingerprint keys experiment memoization and
// stamps results for provenance.
package spec

// CompanionKind selects the precomputation scheme attached to the core.
type CompanionKind string

// Companion kinds.
const (
	// CompanionNone runs the bare out-of-order core.
	CompanionNone CompanionKind = "none"
	// CompanionTEA attaches the paper's TEA thread.
	CompanionTEA CompanionKind = "tea"
	// CompanionRunahead attaches the Branch Runahead comparison engine.
	CompanionRunahead CompanionKind = "runahead"
	// CompanionBullseye attaches per-H2P tagged pattern tables trained at
	// retire (the Bullseye predictor, see zoo.go).
	CompanionBullseye CompanionKind = "bullseye"
	// CompanionLDBP attaches load-driven branch prediction: load→branch
	// chains captured at retire, predicted ahead off committed load values.
	CompanionLDBP CompanionKind = "ldbp"
	// CompanionTwoWindow attaches a lightweight in-order two-window
	// precompute BPU that resolves in-flight branches from ready operands.
	CompanionTwoWindow CompanionKind = "twowin"
)

// MachineSpec is one complete machine point. The zero value is not a valid
// machine; start from a preset (Preset, Baseline) or a JSON file.
type MachineSpec struct {
	Frontend  Frontend  `json:"frontend"`
	Backend   Backend   `json:"backend"`
	Memory    Memory    `json:"memory"`
	Predictor Predictor `json:"predictor"`
	Companion Companion `json:"companion"`
}

// Frontend describes fetch and the decoupled branch-prediction feed.
type Frontend struct {
	Width          int `json:"width"`            // fetch/decode/rename/issue width
	RetireWidth    int `json:"retire_width"`     // retirement bandwidth
	FetchQueueSize int `json:"fetch_queue_size"` // decoupled-BP fetch queue entries
	// FetchToRenameLat is the number of cycles between reading instruction
	// bytes and being available to rename; together with the 1-cycle
	// predict and 1-cycle rename/dispatch it forms the 12-cycle frontend.
	FetchToRenameLat uint64 `json:"fetch_to_rename_lat"`
	MaxBlockInstrs   int    `json:"max_block_instrs"`    // BP throughput cap: 32 instructions (128B) per cycle
	FetchLinesPerCyc int    `json:"fetch_lines_per_cyc"` // sequential I-cache lines per cycle
	// FrontQCap bounds fetched-but-not-renamed uops (decode/uop-queue
	// backpressure); fetch stalls when the frontend pipe is full.
	FrontQCap int `json:"front_q_cap"`
}

// Backend describes the out-of-order engine.
type Backend struct {
	ROBSize  int `json:"rob_size"`
	RSSize   int `json:"rs_size"`
	NumPRegs int `json:"num_pregs"`
	LQSize   int `json:"lq_size"`
	SQSize   int `json:"sq_size"`

	ALUPorts  int `json:"alu_ports"`
	LDPorts   int `json:"ld_ports"`
	LDSTPorts int `json:"ldst_ports"`
	FPPorts   int `json:"fp_ports"`

	ALULat  uint64 `json:"alu_lat"`
	MulLat  uint64 `json:"mul_lat"`
	DivLat  uint64 `json:"div_lat"`
	FPLat   uint64 `json:"fp_lat"`
	FDivLat uint64 `json:"fdiv_lat"`

	// MispredictExtraLat models the redirect/recovery overhead beyond
	// pipeline refill (checkpoint copy, predictor repair).
	MispredictExtraLat uint64 `json:"mispredict_extra_lat"`
}

// Ports returns the total execution-port count (the main core's issue
// bandwidth; the tea-bigengine preset sizes its dedicated engine to this).
func (b Backend) Ports() int { return b.ALUPorts + b.LDPorts + b.LDSTPorts + b.FPPorts }

// Memory describes the cache hierarchy (sizes in bytes, latencies in core
// cycles); internal/mem takes it as the hierarchy's geometry. The DRAM
// model is fixed DDR4-2400R.
type Memory struct {
	L1ISize int    `json:"l1i_size"`
	L1IWays int    `json:"l1i_ways"`
	L1DSize int    `json:"l1d_size"`
	L1DWays int    `json:"l1d_ways"`
	LLCSize int    `json:"llc_size"`
	LLCWays int    `json:"llc_ways"`
	L1Lat   uint64 `json:"l1_lat"`
	LLCLat  uint64 `json:"llc_lat"`

	L1MSHRs  int `json:"l1_mshrs"`
	LLCMSHRs int `json:"llc_mshrs"`
}

// Predictor describes the decoupled branch-prediction stack (TAGE-SC-L
// class); internal/bpred takes it as the predictor's geometry. TageHistLens
// is the geometric history series of the tagged tables; its length must
// equal TageTables.
type Predictor struct {
	TageTables   int      `json:"tage_tables"`    // tagged TAGE tables, 1..12
	TageHistLens []uint32 `json:"tage_hist_lens"` // each 1..2048 bits
	BTBEntries   int      `json:"btb_entries"`    // entries/ways must be a power of two
	BTBWays      int      `json:"btb_ways"`
	RASEntries   int      `json:"ras_entries"` // return address stack depth
}

// Companion describes the precomputation scheme. Exactly the section named
// by Kind must be populated — TEA for "tea", Runahead for "runahead", and so
// on through the kind registry (see RegisterKind); "none" carries no section.
// Validate enforces this through the registry.
type Companion struct {
	Kind CompanionKind `json:"kind"`

	// Dedicated gives a TEA companion its own execution engine with Ports
	// execution slots per cycle instead of shared backend resources
	// (§V-D / Fig. 9).
	Dedicated bool `json:"dedicated,omitempty"`
	Ports     int  `json:"ports,omitempty"`
	// NoPriority demotes companion uops below the main thread at select
	// (ablation of §IV-E's prioritization claim).
	NoPriority bool `json:"no_priority,omitempty"`

	TEA      *TEA       `json:"tea,omitempty"`
	Runahead *Runahead  `json:"runahead,omitempty"`
	Bullseye *Bullseye  `json:"bullseye,omitempty"`
	LDBP     *LDBP      `json:"ldbp,omitempty"`
	TwoWin   *TwoWindow `json:"twowin,omitempty"`
}

// TEA holds the TEA-thread structures (Table II) and the Fig. 10 ablation
// switches. internal/core takes it as the thread's configuration.
type TEA struct {
	// H2P table (§IV-B): 32 sets × 8 ways = 256 3-bit saturating counters
	// (H2PMax 7). A branch is H2P while its counter exceeds H2PThreshold;
	// every counter decrements every H2PDecayPeriod retired instructions.
	H2PSets        int    `json:"h2p_sets"`
	H2PWays        int    `json:"h2p_ways"`
	H2PMax         uint8  `json:"h2p_max"`
	H2PThreshold   uint8  `json:"h2p_threshold"`
	H2PDecayPeriod uint64 `json:"h2p_decay_period"`

	// Fill Buffer and Backward Dataflow Walk (§IV-C).
	FillBufSize   int    `json:"fill_buf_size"`
	WalkCycles    uint64 `json:"walk_cycles"`     // walk duration; retired instrs are dropped meanwhile
	SourceMemSize int    `json:"source_mem_size"` // memory-address entries in the Source List

	// Block Cache (§IV-B/C): 64 sets × 8 ways = 512 entries, plus 32 × 8 =
	// 256 tag-only entries. Set counts must be powers of two. Every mask
	// clears each MaskResetPeriod retired instructions; SegMaxUops bounds the
	// chain uops delivered per cycle.
	BlockCacheSets  int    `json:"block_cache_sets"`
	BlockCacheWays  int    `json:"block_cache_ways"`
	EmptyTagSets    int    `json:"empty_tag_sets"`
	EmptyTagWays    int    `json:"empty_tag_ways"`
	MaskResetPeriod uint64 `json:"mask_reset_period"`
	SegMaxUops      int    `json:"seg_max_uops"`

	// Frontend/backend (§IV-D/E).
	FrontLatency uint64 `json:"front_latency"` // block-cache read → rename-ready (9-cycle frontend)
	// MaxLeadBlocks bounds the shadow fetch queue: the TEA thread stops
	// fetching when it is this many fetch blocks ahead of the main thread.
	// Bounding the lead bounds the precomputation work lost to each flush.
	MaxLeadBlocks int `json:"max_lead_blocks"`
	RSPartition   int `json:"rs_partition"` // reservation stations reserved while active
	// PRPartition is the physical registers reserved while active; the core
	// builds this pool above backend.num_pregs whether or not the thread
	// attaches (the paper's static partitioning).
	PRPartition int `json:"pr_partition"`

	// Store data cache (§IV-E): half-lines of 32 bytes.
	StoreCacheLines int `json:"store_cache_lines"`
	// StoreWaitWindow: when conservative load ordering is engaged (see
	// internal/core/tea.go: it self-enables when precomputation accuracy
	// degrades), a TEA load waits for older in-flight TEA stores within this
	// many sequence numbers.
	StoreWaitWindow int `json:"store_wait_window"`

	// Termination policy (§V-B, §IV-G).
	LateLimit int `json:"late_limit"` // terminate after this many late precomputations
	// WrongLimit suppresses a branch's early flushes after this many
	// fail-safe-detected wrong precomputations (the counter decays with the
	// H2P decay period).
	WrongLimit int `json:"wrong_limit"`

	// Ablation switches (Fig. 10 / §V-B).
	OnlyLoops         bool `json:"only_loops,omitempty"`          // chains confined between consecutive instances of an H2P branch
	NoMasks           bool `json:"no_masks,omitempty"`            // no mask combining; walks seed only at H2P branches
	NoMem             bool `json:"no_mem,omitempty"`              // ignore memory dependencies in the walk
	DisableEarlyFlush bool `json:"disable_early_flush,omitempty"` // compute but never flush (prefetch-only)
}

// BlockCacheEntries returns the Block Cache data capacity (sets × ways).
func (t *TEA) BlockCacheEntries() int { return t.BlockCacheSets * t.BlockCacheWays }

// SetBlockCacheEntries resizes the Block Cache to at least entries while
// keeping the associativity, rounding the set count up to the next power of
// two (indices are computed by masking).
func (t *TEA) SetBlockCacheEntries(entries int) {
	sets := 1
	for sets*t.BlockCacheWays < entries {
		sets *= 2
	}
	t.BlockCacheSets = sets
}

// Runahead holds the Branch Runahead engine parameters (the scaled-up
// configuration of §V-C: a dedicated engine comparable to the on-core TEA
// partition). internal/runahead takes it as the engine's configuration.
type Runahead struct {
	MaxChains      int `json:"max_chains"`      // dependence-chain table entries
	MaxChainUops   int `json:"max_chain_uops"`  // uops per captured chain
	QueueDepth     int `json:"queue_depth"`     // per-branch prediction queue entries
	MaxInstances   int `json:"max_instances"`   // chain instances in flight in the engine
	EngineWidth    int `json:"engine_width"`    // engine uops started per cycle (16 dedicated units)
	RecaptureEvery int `json:"recapture_every"` // re-capture a branch's chain every N instances
	DisableAfter   int `json:"disable_after"`   // consecutive wrong predictions before disabling
	HistSize       int `json:"hist_size"`       // retired-instruction window for chain capture
}

// Clone returns a deep copy: mutating the copy (patches, overrides) never
// affects the original. Companion sections are deep-copied through the kind
// registry, so new kinds inherit correct clone semantics for free.
func (s MachineSpec) Clone() MachineSpec {
	c := s
	if s.Predictor.TageHistLens != nil {
		c.Predictor.TageHistLens = append([]uint32(nil), s.Predictor.TageHistLens...)
	}
	for _, info := range kindRegistry {
		if info.CloneInto != nil {
			info.CloneInto(&c.Companion, &s.Companion)
		}
	}
	return c
}
