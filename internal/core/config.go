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

// Config is the TEA thread's configuration: the machine spec's TEA section
// (Table II and the Fig. 10 ablation switches) plus the run's Paranoia.
type Config struct {
	spec.TEA

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
func DefaultConfig() Config { return Config{TEA: *spec.DefaultTEA()} }
