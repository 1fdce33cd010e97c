// Package pipeline implements the baseline out-of-order core from Table I of
// the paper: an 8-wide machine with a decoupled branch predictor feeding a
// 128-entry fetch queue, a 12-cycle frontend, rename over 400 physical
// registers, a 352-entry reservation station, 12 execution ports, a
// 512-entry ROB, and a 256/192-entry load/store queue, over the cache
// hierarchy and DRAM model in internal/mem.
//
// The simulator is execution-driven and value-accurate: physical registers
// hold real 64-bit values, wrong-path instructions execute with real
// (possibly stale) inputs, and branch resolution compares genuinely computed
// outcomes against the decoupled predictor's stream. Retired instructions
// are optionally checked against the functional emulator (co-simulation).
//
// A Companion (the TEA thread, or the Branch Runahead baseline) can be
// attached to observe the fetch-block stream and retirement, occupy reserved
// backend resources, and inject early misprediction flushes keyed by branch
// sequence numbers — the paper's synchronized timestamps.
package pipeline

import (
	"teasim/internal/bpred"
	"teasim/internal/mem"
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Config holds all core parameters (defaults = Table I).
type Config struct {
	FrontWidth     int // fetch/decode/rename/issue width
	RetireWidth    int
	FetchQueueSize int // fetch addresses buffered by the decoupled BP
	// FetchToRenameLat is the number of cycles between reading instruction
	// bytes and being available to rename; together with the 1-cycle predict
	// and 1-cycle rename/dispatch it forms the 12-cycle frontend.
	FetchToRenameLat uint64
	MaxBlockInstrs   int // BP throughput cap: 32 instructions (128B) per cycle
	FetchLinesPerCyc int // sequential I-cache lines readable per cycle
	// FrontQCap bounds fetched-but-not-renamed uops (decode/uop-queue
	// backpressure); fetch stalls when the frontend pipe is full.
	FrontQCap int

	ROBSize  int
	RSSize   int
	NumPRegs int
	LQSize   int
	SQSize   int

	ALUPorts  int
	LDPorts   int
	LDSTPorts int
	FPPorts   int

	// Latencies (cycles).
	ALULat, MulLat, DivLat, FPLat, FDivLat uint64

	// MispredictExtraLat models the redirect/recovery overhead beyond
	// pipeline refill (checkpoint copy, predictor repair).
	MispredictExtraLat uint64

	// BP sets the branch-predictor stack geometry (zero fields = Table I).
	BP bpred.Config
	// Mem sets the cache-hierarchy geometry (zero value = Table I).
	Mem mem.HierarchyConfig

	// CompanionPRegs is the physical-register pool reserved for a companion
	// thread above NumPRegs (0 = the Table II partition of 192). The pool
	// exists whether or not a companion attaches, matching the paper's
	// static partitioning.
	CompanionPRegs int

	// CompanionDedicated gives the companion its own execution engine
	// (paper §V-D / Fig. 9): CompanionPorts dedicated execution slots per
	// cycle and no carve-out of the main thread's RS/PR partitions. Cache
	// ports and MSHRs remain shared, as in the paper.
	CompanionDedicated bool
	CompanionPorts     int
	// CompanionNoPriority demotes companion uops below the main thread at
	// select (ablation of §IV-E's prioritization claim).
	CompanionNoPriority bool

	// CoSim enables golden-model checking at retirement (tests).
	CoSim bool

	// NoIdleSkip disables the idle-cycle fast-forward scheduler (skip.go),
	// ticking every cycle individually. Skipping is cycle-exact — results
	// and stat counters are bit-identical either way (enforced by the
	// equivalence test) — so this exists for debugging and for the
	// equivalence test itself.
	NoIdleSkip bool

	// Telemetry, when non-nil, receives structured trace events (retire,
	// flush, early-flush — the successor of the old printf trace) and
	// per-interval time-series samples through its Sink. See
	// internal/telemetry for sinks and the Collector's trace window and
	// sampling period. Telemetry is purely observational: attaching it
	// never changes simulated behavior.
	Telemetry *telemetry.Collector

	// MaxInstructions stops the run after retiring this many (0 = until halt).
	MaxInstructions uint64
	// MaxCycles aborts a wedged simulation (0 = no limit).
	MaxCycles uint64

	// Paranoia enables the per-cycle invariant checker (paranoia.go): ROB
	// ordering, physical-register conservation, scheduler/scoreboard
	// consistency, completion accounting. The checker only reads — results
	// are bit-identical — but costs an order of magnitude in speed, and the
	// first violated invariant panics with a structural dump. For CI and
	// debugging.
	Paranoia bool

	// Heartbeat, when non-nil, receives a progress beat at the run loop's
	// cancellation-check boundaries (RunChecked) so an external watchdog can
	// distinguish a slow simulation from a wedged one. Forces the checked
	// run path even when no check function is supplied.
	Heartbeat *telemetry.Heartbeat
}

// DefaultConfig returns the Table I baseline core (spec.Baseline).
func DefaultConfig() Config {
	b := spec.Baseline()
	return ConfigFromSpec(&b)
}

// ConfigFromSpec converts the spec's frontend/backend/memory/predictor and
// companion-engine shape into the pipeline configuration. Behavioral fields
// (CoSim, telemetry, budgets) stay with the caller.
func ConfigFromSpec(s *spec.MachineSpec) Config {
	cfg := Config{
		FrontWidth:       s.Frontend.Width,
		RetireWidth:      s.Frontend.RetireWidth,
		FetchQueueSize:   s.Frontend.FetchQueueSize,
		FetchToRenameLat: s.Frontend.FetchToRenameLat,
		MaxBlockInstrs:   s.Frontend.MaxBlockInstrs,
		FetchLinesPerCyc: s.Frontend.FetchLinesPerCyc,
		FrontQCap:        s.Frontend.FrontQCap,

		ROBSize:  s.Backend.ROBSize,
		RSSize:   s.Backend.RSSize,
		NumPRegs: s.Backend.NumPRegs,
		LQSize:   s.Backend.LQSize,
		SQSize:   s.Backend.SQSize,

		ALUPorts:  s.Backend.ALUPorts,
		LDPorts:   s.Backend.LDPorts,
		LDSTPorts: s.Backend.LDSTPorts,
		FPPorts:   s.Backend.FPPorts,

		ALULat: s.Backend.ALULat, MulLat: s.Backend.MulLat,
		DivLat: s.Backend.DivLat, FPLat: s.Backend.FPLat,
		FDivLat: s.Backend.FDivLat,

		MispredictExtraLat: s.Backend.MispredictExtraLat,

		BP: bpred.Config{
			TageTables:   s.Predictor.TageTables,
			TageHistLens: s.Predictor.TageHistLens,
			BTBEntries:   s.Predictor.BTBEntries,
			BTBWays:      s.Predictor.BTBWays,
			RASEntries:   s.Predictor.RASEntries,
		},
		Mem: mem.HierarchyConfig{
			L1ISize: s.Memory.L1ISize, L1IWays: s.Memory.L1IWays,
			L1DSize: s.Memory.L1DSize, L1DWays: s.Memory.L1DWays,
			LLCSize: s.Memory.LLCSize, LLCWays: s.Memory.LLCWays,
			L1Lat: s.Memory.L1Lat, LLCLat: s.Memory.LLCLat,
			L1MSHRs: s.Memory.L1MSHRs, LLCMSHRs: s.Memory.LLCMSHRs,
		},

		CompanionDedicated:  s.Companion.Dedicated,
		CompanionPorts:      s.Companion.Ports,
		CompanionNoPriority: s.Companion.NoPriority,
		CompanionPRegs:      192,
	}
	if t := s.Companion.TEA; t != nil {
		cfg.CompanionPRegs = t.PRPartition
	}
	return cfg
}
