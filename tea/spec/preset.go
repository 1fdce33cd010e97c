package spec

import (
	"fmt"
	"sort"
)

// presets is the single registry of named machine points. Each entry builds
// a fresh spec so callers can mutate their copy freely. A tea.Mode is an
// entry's name, so every registered point runs by name (teasim -mode,
// Config.Mode) and labels its results with it; new machine points can be
// registered without touching simulator code.
var presets = map[string]func() MachineSpec{}

// Register adds a named preset. The builder must return a fresh value on
// every call. It panics on a duplicate name: a preset is immutable once
// registered, because callers may cache what it resolves to (tea caches each
// preset point's fingerprint for the life of the process).
func Register(name string, build func() MachineSpec) {
	if name == "" || build == nil {
		panic("spec: Register requires a name and a builder")
	}
	if _, dup := presets[name]; dup {
		panic(fmt.Sprintf("spec: preset %q registered twice", name))
	}
	presets[name] = build
}

// Preset returns a fresh copy of a registered machine point.
func Preset(name string) (MachineSpec, error) {
	build, ok := presets[name]
	if !ok {
		return MachineSpec{}, fmt.Errorf("spec: unknown preset %q (have %v)", name, Presets())
	}
	return build(), nil
}

// Presets returns the registered preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Baseline returns the Table I out-of-order core with no companion.
func Baseline() MachineSpec {
	return MachineSpec{
		Frontend: Frontend{
			Width:            8,
			RetireWidth:      16,
			FetchQueueSize:   128,
			FetchToRenameLat: 10,
			MaxBlockInstrs:   32,
			FetchLinesPerCyc: 2,
			FrontQCap:        96,
		},
		Backend: Backend{
			ROBSize:  512,
			RSSize:   352,
			NumPRegs: 400,
			LQSize:   256,
			SQSize:   192,

			ALUPorts:  6,
			LDPorts:   2,
			LDSTPorts: 2,
			FPPorts:   2,

			ALULat: 1, MulLat: 3, DivLat: 12, FPLat: 3, FDivLat: 12,

			MispredictExtraLat: 3,
		},
		Memory: Memory{
			L1ISize: 32 << 10, L1IWays: 8,
			L1DSize: 48 << 10, L1DWays: 12,
			LLCSize: 1 << 20, LLCWays: 16,
			L1Lat: 4, LLCLat: 18,
			L1MSHRs: 16, LLCMSHRs: 32,
		},
		Predictor: Predictor{
			TageTables:   12,
			TageHistLens: []uint32{4, 8, 13, 22, 36, 60, 100, 167, 280, 468, 782, 1270},
			BTBEntries:   4096,
			BTBWays:      4,
			RASEntries:   64,
		},
		Companion: Companion{Kind: CompanionNone},
	}
}

// DefaultTEA returns the Table II TEA-thread structures.
func DefaultTEA() *TEA {
	return &TEA{
		H2PSets:        32,
		H2PWays:        8,
		H2PMax:         7,
		H2PThreshold:   1,
		H2PDecayPeriod: 50_000,

		FillBufSize:   512,
		WalkCycles:    500,
		SourceMemSize: 16,

		BlockCacheSets:  64,
		BlockCacheWays:  8,
		EmptyTagSets:    32,
		EmptyTagWays:    8,
		MaskResetPeriod: 500_000,
		SegMaxUops:      8,

		FrontLatency:  7, // + 1 predict + 1 block read = 9-cycle TEA frontend
		MaxLeadBlocks: 2,
		RSPartition:   192,
		PRPartition:   192,

		StoreCacheLines: 16,
		StoreWaitWindow: 4096,
		LateLimit:       4,
		WrongLimit:      4,
	}
}

// DefaultRunahead returns the scaled-up Branch Runahead engine of §V-C.
func DefaultRunahead() *Runahead {
	return &Runahead{
		MaxChains:      64,
		MaxChainUops:   64,
		QueueDepth:     16,
		MaxInstances:   12,
		EngineWidth:    16,
		RecaptureEvery: 64,
		DisableAfter:   4,
		HistSize:       512,
	}
}

func init() {
	// The six paper machine points (tea.ModeBaseline ... tea.ModeWide16).
	Register("baseline", Baseline)
	Register("tea", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionTEA, TEA: DefaultTEA()}
		return s
	})
	Register("tea-dedicated", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionTEA, TEA: DefaultTEA(), Dedicated: true, Ports: 16}
		return s
	})
	Register("tea-bigengine", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionTEA, TEA: DefaultTEA(), Dedicated: true, Ports: s.Backend.Ports()}
		return s
	})
	Register("runahead", func() MachineSpec {
		s := Baseline()
		s.Companion = Companion{Kind: CompanionRunahead, Runahead: DefaultRunahead()}
		return s
	})
	Register("wide16", func() MachineSpec {
		// Double the frontend width only; the predictor still delivers one
		// taken branch per cycle (the paper's §IV-H point).
		s := Baseline()
		s.Frontend.Width = 16
		s.Frontend.FrontQCap = 192
		return s
	})
}
