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
	"teasim/internal/telemetry"
	"teasim/tea/spec"
)

// Config is one core's configuration: a machine spec's sections (the
// baseline preset holds Table I) beside the run's own settings. The
// frontend and backend sections are embedded, so their fields read as
// cfg.Width, cfg.ROBSize and so on.
type Config struct {
	spec.Frontend
	spec.Backend
	// Memory sets the cache-hierarchy geometry (internal/mem).
	Memory spec.Memory
	// Predictor sets the branch-predictor stack geometry (internal/bpred).
	Predictor spec.Predictor
	// Companion sets the engine a companion thread runs on: Dedicated gives
	// it its own execution engine (paper §V-D / Fig. 9) of Ports execution
	// slots per cycle and no carve-out of the main thread's RS/PR
	// partitions (cache ports and MSHRs remain shared, as in the paper);
	// NoPriority demotes its uops below the main thread at select. The
	// physical-register pool reserved for a companion above NumPRegs is the
	// TEA section's PRPartition, or Table II's when the machine has no TEA
	// section; the pool exists whether or not a companion attaches,
	// matching the paper's static partitioning. The companion itself is
	// built from the same section (internal/companion).
	Companion spec.Companion

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

// ConfigFromSpec copies the spec's sections into a pipeline configuration.
// Run settings (CoSim, telemetry, budgets) stay with the caller.
func ConfigFromSpec(s *spec.MachineSpec) Config {
	return Config{
		Frontend:  s.Frontend,
		Backend:   s.Backend,
		Memory:    s.Memory,
		Predictor: s.Predictor,
		Companion: s.Companion,
	}
}
