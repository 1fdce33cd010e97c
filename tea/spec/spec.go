// Package spec defines the declarative machine configuration tree behind
// every simulation: a MachineSpec describes the frontend, backend, memory
// hierarchy, branch predictor, and precomputation companion of one machine
// point, independent of simulator code.
//
// The package is pure data: specs are built from presets (the named machine
// points behind the paper's tables and figures), loaded from JSON, and
// edited with dotted-path patches ("companion.tea.fill_buf_size=1024").
// Each simulator package converts its part of a resolved spec into its own
// configuration (ConfigFromSpec); every ablation and sensitivity study is
// therefore a data change, not a code change.
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
	Width            int    `json:"width"`               // fetch/decode/rename/issue width
	RetireWidth      int    `json:"retire_width"`        // retirement bandwidth
	FetchQueueSize   int    `json:"fetch_queue_size"`    // decoupled-BP fetch queue entries
	FetchToRenameLat uint64 `json:"fetch_to_rename_lat"` // fetch→rename pipeline depth
	MaxBlockInstrs   int    `json:"max_block_instrs"`    // BP throughput cap per fetch block
	FetchLinesPerCyc int    `json:"fetch_lines_per_cyc"` // sequential I-cache lines per cycle
	FrontQCap        int    `json:"front_q_cap"`         // fetched-but-not-renamed uop bound
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

	MispredictExtraLat uint64 `json:"mispredict_extra_lat"`
}

// Ports returns the total execution-port count (the main core's issue
// bandwidth; the tea-bigengine preset sizes its dedicated engine to this).
func (b Backend) Ports() int { return b.ALUPorts + b.LDPorts + b.LDSTPorts + b.FPPorts }

// Memory describes the cache hierarchy (sizes in bytes, latencies in core
// cycles). The DRAM model is fixed DDR4-2400R.
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
// class). TageHistLens is the geometric history series of the tagged
// tables; its length must equal TageTables.
type Predictor struct {
	TageTables   int      `json:"tage_tables"`
	TageHistLens []uint32 `json:"tage_hist_lens"`
	BTBEntries   int      `json:"btb_entries"`
	BTBWays      int      `json:"btb_ways"`
	RASEntries   int      `json:"ras_entries"`
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
// switches.
type TEA struct {
	// H2P table (§IV-B).
	H2PSets        int    `json:"h2p_sets"`
	H2PWays        int    `json:"h2p_ways"`
	H2PMax         uint8  `json:"h2p_max"`
	H2PThreshold   uint8  `json:"h2p_threshold"`
	H2PDecayPeriod uint64 `json:"h2p_decay_period"`

	// Fill Buffer and Backward Dataflow Walk (§IV-C).
	FillBufSize   int    `json:"fill_buf_size"`
	WalkCycles    uint64 `json:"walk_cycles"`
	SourceMemSize int    `json:"source_mem_size"`

	// Block Cache (§IV-B/C). Set counts must be powers of two.
	BlockCacheSets  int    `json:"block_cache_sets"`
	BlockCacheWays  int    `json:"block_cache_ways"`
	EmptyTagSets    int    `json:"empty_tag_sets"`
	EmptyTagWays    int    `json:"empty_tag_ways"`
	MaskResetPeriod uint64 `json:"mask_reset_period"`
	SegMaxUops      int    `json:"seg_max_uops"`

	// Frontend/backend (§IV-D/E).
	FrontLatency  uint64 `json:"front_latency"`
	MaxLeadBlocks int    `json:"max_lead_blocks"` // shadow fetch queue depth
	RSPartition   int    `json:"rs_partition"`
	PRPartition   int    `json:"pr_partition"`

	// Store data cache and conservative load ordering (§IV-E).
	StoreCacheLines int `json:"store_cache_lines"`
	StoreWaitWindow int `json:"store_wait_window"`

	// Termination policy (§V-B, §IV-G).
	LateLimit  int `json:"late_limit"`
	WrongLimit int `json:"wrong_limit"`

	// Ablation switches (Fig. 10 / §V-B).
	OnlyLoops         bool `json:"only_loops,omitempty"`
	NoMasks           bool `json:"no_masks,omitempty"`
	NoMem             bool `json:"no_mem,omitempty"`
	DisableEarlyFlush bool `json:"disable_early_flush,omitempty"`
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

// Runahead holds the Branch Runahead engine parameters (§V-C).
type Runahead struct {
	MaxChains      int `json:"max_chains"`
	MaxChainUops   int `json:"max_chain_uops"`
	QueueDepth     int `json:"queue_depth"`
	MaxInstances   int `json:"max_instances"`
	EngineWidth    int `json:"engine_width"`
	RecaptureEvery int `json:"recapture_every"`
	DisableAfter   int `json:"disable_after"`
	HistSize       int `json:"hist_size"`
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
