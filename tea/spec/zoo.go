// The companion zoo: parameter sections, defaults, validation, and presets
// for the companion kinds beyond the paper's TEA/runahead pair. Each kind is
// one RegisterKind call here plus one simulator package (internal/bullseye,
// internal/ldbp, internal/twowin) that registers its factory.
package spec

// Bullseye holds the Bullseye-style predictor parameters: large dedicated
// tagged pattern tables, one logical table per tracked H2P branch, trained
// at retire from local history and consulted at fetch through
// OverridePrediction (Behrendt et al. 2025).
type Bullseye struct {
	// H2P identification (shared filter design with TEA's §IV-B table).
	H2PSets        int    `json:"h2p_sets"`
	H2PWays        int    `json:"h2p_ways"`
	H2PDecayPeriod uint64 `json:"h2p_decay_period"`

	// Per-branch tagged pattern table: TableEntries entries (power of two)
	// indexed/tagged by HistBits of local retired history.
	TableEntries int `json:"table_entries"`
	HistBits     int `json:"hist_bits"`
	// MaxBranches bounds the tracked H2P branch slots (LRU on overflow).
	MaxBranches int `json:"max_branches"`

	// Signed saturating outcome counters in [-ConfMax, ConfMax]; the
	// predictor only overrides when every step of the ahead-chained lookup
	// has |counter| >= ConfThreshold.
	ConfMax       int `json:"conf_max"`
	ConfThreshold int `json:"conf_threshold"`
}

// LDBP holds the load-driven branch prediction parameters: load→branch
// dependence chains captured from the retired-instruction window, trigger
// loads tracked for stride locality, and branch outcomes precomputed from
// committed memory values Lookahead iterations ahead.
type LDBP struct {
	// H2P identification (same filter design as TEA/bullseye).
	H2PSets        int    `json:"h2p_sets"`
	H2PWays        int    `json:"h2p_ways"`
	H2PDecayPeriod uint64 `json:"h2p_decay_period"`

	// Chain capture from the retired-instruction window.
	WindowSize   int `json:"window_size"`
	MaxChains    int `json:"max_chains"`
	MaxChainUops int `json:"max_chain_uops"`

	// Outcome queue depth per tracked branch and stride lookahead distance.
	QueueDepth int `json:"queue_depth"`
	Lookahead  int `json:"lookahead"`
	// StrideConf is how many consecutive identical address deltas the
	// trigger load must show before its stride is trusted.
	StrideConf int `json:"stride_conf"`
}

// TwoWindow holds the lightweight in-order precompute BPU parameters: a
// small window over the oldest unresolved in-flight conditional branches,
// resolved early from ready physical registers and repaired through the
// early-flush path (SNIPPETS.md #1/#2).
type TwoWindow struct {
	// WindowSize is the number of tracked unresolved branches (the
	// reference design uses two).
	WindowSize int `json:"window_size"`
	// EvalsPerCyc bounds condition evaluations per cycle.
	EvalsPerCyc int `json:"evals_per_cyc"`
}

// DefaultBullseye returns the default Bullseye structures: 64 tracked H2P
// branches with 4K-entry pattern tables each — deliberately large, the
// design trades storage for accuracy.
func DefaultBullseye() *Bullseye {
	return &Bullseye{
		H2PSets:        32,
		H2PWays:        8,
		H2PDecayPeriod: 50_000,

		TableEntries: 4096,
		HistBits:     24,
		MaxBranches:  64,

		ConfMax:       8,
		ConfThreshold: 4,
	}
}

// DefaultLDBP returns the default load-driven branch prediction structures.
func DefaultLDBP() *LDBP {
	return &LDBP{
		H2PSets:        32,
		H2PWays:        8,
		H2PDecayPeriod: 50_000,

		WindowSize:   512,
		MaxChains:    64,
		MaxChainUops: 8,

		QueueDepth: 16,
		Lookahead:  8,
		StrideConf: 3,
	}
}

// DefaultTwoWindow returns the reference two-entry precompute window.
func DefaultTwoWindow() *TwoWindow {
	return &TwoWindow{
		WindowSize:  2,
		EvalsPerCyc: 2,
	}
}

func init() {
	RegisterKind(KindInfo{
		Kind:    CompanionBullseye,
		Summary: "Bullseye: per-H2P tagged pattern tables trained at retire",
		Hint:    "see spec.DefaultBullseye",
		Has:     func(c *Companion) bool { return c.Bullseye != nil },
		Install: func(c *Companion) { c.Bullseye = DefaultBullseye() },
		Clear:   func(c *Companion) { c.Bullseye = nil },
		CloneInto: func(dst, src *Companion) {
			if src.Bullseye != nil {
				b := *src.Bullseye
				dst.Bullseye = &b
			}
		},
		Validate: func(s *MachineSpec, bad func(string, ...any)) {
			validateBullseye(s.Companion.Bullseye, bad)
		},
	})
	RegisterKind(KindInfo{
		Kind:    CompanionLDBP,
		Summary: "LDBP: load-driven branch prediction off committed load values",
		Hint:    "see spec.DefaultLDBP",
		Has:     func(c *Companion) bool { return c.LDBP != nil },
		Install: func(c *Companion) { c.LDBP = DefaultLDBP() },
		Clear:   func(c *Companion) { c.LDBP = nil },
		CloneInto: func(dst, src *Companion) {
			if src.LDBP != nil {
				l := *src.LDBP
				dst.LDBP = &l
			}
		},
		Validate: func(s *MachineSpec, bad func(string, ...any)) {
			validateLDBP(s.Companion.LDBP, bad)
		},
	})
	RegisterKind(KindInfo{
		Kind:    CompanionTwoWindow,
		Summary: "two-window in-order precompute BPU on the early-flush path",
		Hint:    "see spec.DefaultTwoWindow",
		Has:     func(c *Companion) bool { return c.TwoWin != nil },
		Install: func(c *Companion) { c.TwoWin = DefaultTwoWindow() },
		Clear:   func(c *Companion) { c.TwoWin = nil },
		CloneInto: func(dst, src *Companion) {
			if src.TwoWin != nil {
				w := *src.TwoWin
				dst.TwoWin = &w
			}
		},
		Validate: func(s *MachineSpec, bad func(string, ...any)) {
			validateTwoWindow(s.Companion.TwoWin, bad)
		},
	})

	Register("bullseye", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionBullseye, Bullseye: DefaultBullseye()}
		return s
	})
	Register("ldbp", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionLDBP, LDBP: DefaultLDBP()}
		return s
	})
	Register("twowin", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionTwoWindow, TwoWin: DefaultTwoWindow()}
		return s
	})
}

func validateBullseye(b *Bullseye, bad func(string, ...any)) {
	positive(bad, "companion.bullseye", []field{
		{"h2p_ways", b.H2PWays},
		{"h2p_decay_period", int(b.H2PDecayPeriod)},
		{"hist_bits", b.HistBits},
		{"max_branches", b.MaxBranches},
		{"conf_max", b.ConfMax},
		{"conf_threshold", b.ConfThreshold},
	})
	powersOfTwo(bad, "companion.bullseye", []field{
		{"h2p_sets", b.H2PSets},
		{"table_entries", b.TableEntries},
	})
	if b.HistBits > 62 {
		bad("companion.bullseye.hist_bits must fit a uint64 history register, got %d", b.HistBits)
	}
	if b.ConfThreshold > b.ConfMax {
		bad("companion.bullseye.conf_threshold (%d) must not exceed conf_max (%d) or no prediction ever qualifies",
			b.ConfThreshold, b.ConfMax)
	}
}

func validateLDBP(l *LDBP, bad func(string, ...any)) {
	positive(bad, "companion.ldbp", []field{
		{"h2p_ways", l.H2PWays},
		{"h2p_decay_period", int(l.H2PDecayPeriod)},
		{"window_size", l.WindowSize},
		{"max_chains", l.MaxChains},
		{"max_chain_uops", l.MaxChainUops},
		{"queue_depth", l.QueueDepth},
		{"lookahead", l.Lookahead},
		{"stride_conf", l.StrideConf},
	})
	powersOfTwo(bad, "companion.ldbp", []field{{"h2p_sets", l.H2PSets}})
}

func validateTwoWindow(w *TwoWindow, bad func(string, ...any)) {
	positive(bad, "companion.twowin", []field{
		{"window_size", w.WindowSize},
		{"evals_per_cyc", w.EvalsPerCyc},
	})
}
