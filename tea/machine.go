package tea

import (
	"fmt"
	"sync"

	"teasim/internal/bpred"
	"teasim/internal/mem"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

// ResolvedSpec resolves the machine point this configuration simulates:
// Config.Spec (or, when nil, the Mode's preset), with the ablation switches,
// structure-size overrides, and Set patches applied on top — in that order —
// then validated. The result is what RunContext builds the simulator from
// and what SpecFingerprint hashes, so two configs resolving to equal specs
// simulate identical machines.
func (c Config) ResolvedSpec() (spec.MachineSpec, error) {
	var s spec.MachineSpec
	if c.Spec != nil {
		s = c.Spec.Clone()
	} else {
		var err error
		if s, err = c.Mode.Preset(); err != nil {
			return spec.MachineSpec{}, err
		}
	}

	// Ablations and TEA structure-size overrides need a TEA section to land
	// on; silently ignoring them on a TEA-less machine would report the
	// un-ablated machine's numbers under an ablation's name.
	t := s.Companion.TEA
	if t == nil {
		if c.OnlyLoops || c.NoMasks || c.NoMem || c.DisableEarlyFlush {
			return spec.MachineSpec{}, fmt.Errorf(
				"tea: ablation switches require a TEA companion (machine %q has companion %q)",
				c.machineName(), s.Companion.Kind)
		}
		if c.BlockCacheEntries > 0 || c.FillBufferSize > 0 || c.H2PDecayPeriod > 0 || c.MaxLeadBlocks > 0 {
			return spec.MachineSpec{}, fmt.Errorf(
				"tea: TEA structure-size overrides require a TEA companion (machine %q has companion %q)",
				c.machineName(), s.Companion.Kind)
		}
	} else {
		t.OnlyLoops = t.OnlyLoops || c.OnlyLoops
		t.NoMasks = t.NoMasks || c.NoMasks
		t.NoMem = t.NoMem || c.NoMem
		t.DisableEarlyFlush = t.DisableEarlyFlush || c.DisableEarlyFlush
		if c.BlockCacheEntries > 0 {
			t.SetBlockCacheEntries(c.BlockCacheEntries)
		}
		if c.FillBufferSize > 0 {
			t.FillBufSize = c.FillBufferSize
		}
		if c.H2PDecayPeriod > 0 {
			t.H2PDecayPeriod = c.H2PDecayPeriod
		}
		if c.MaxLeadBlocks > 0 {
			t.MaxLeadBlocks = c.MaxLeadBlocks
		}
	}
	if c.FetchQueueSize > 0 {
		s.Frontend.FetchQueueSize = c.FetchQueueSize
	}

	for _, patch := range c.Set {
		if err := s.Set(patch); err != nil {
			return spec.MachineSpec{}, fmt.Errorf("tea: machine %q: %w", c.machineName(), err)
		}
	}

	if err := s.Validate(); err != nil {
		return spec.MachineSpec{}, fmt.Errorf("tea: machine %q: %w", c.machineName(), err)
	}
	return s, nil
}

// SpecFingerprint returns the resolved spec's canonical fingerprint — the
// machine-identity half of an Engine memoization key and the provenance hash
// stamped into Result.SpecHash. A preset point's fingerprint is resolved
// once per process and then served from a cache, so deriving a cell's memo
// key does not allocate; configs with a Spec or Set patches resolve on
// every call.
func (c Config) SpecFingerprint() (uint64, error) {
	cacheable := c.Spec == nil && len(c.Set) == 0
	var p presetPoint
	if cacheable {
		p = presetPoint{
			mode:      c.Mode,
			onlyLoops: c.OnlyLoops, noMasks: c.NoMasks, noMem: c.NoMem,
			disableEarlyFlush: c.DisableEarlyFlush,
			blockCacheEntries: c.BlockCacheEntries, fillBufferSize: c.FillBufferSize,
			h2pDecayPeriod: c.H2PDecayPeriod, maxLeadBlocks: c.MaxLeadBlocks,
			fetchQueueSize: c.FetchQueueSize,
		}
		presetFingerprints.mu.Lock()
		fp, ok := presetFingerprints.m[p]
		presetFingerprints.mu.Unlock()
		if ok {
			return fp, nil
		}
	}
	s, err := c.ResolvedSpec()
	if err != nil {
		return 0, err // never cached: every call reports it
	}
	fp := s.Fingerprint()
	if cacheable {
		presetFingerprints.mu.Lock()
		presetFingerprints.m[p] = fp
		presetFingerprints.mu.Unlock()
	}
	return fp, nil
}

// presetPoint is everything ResolvedSpec reads from a Config without a Spec
// or Set patches: the Mode, the four ablation switches and the five
// structure-size overrides. TestPresetPointCoversConfig fails when
// ResolvedSpec starts reading a field this key omits.
type presetPoint struct {
	mode                                         Mode
	onlyLoops, noMasks, noMem, disableEarlyFlush bool
	blockCacheEntries, fillBufferSize            int
	h2pDecayPeriod                               uint64
	maxLeadBlocks, fetchQueueSize                int
}

// presetFingerprints caches SpecFingerprint by preset point for the life of
// the process. Entries never go stale because presets are immutable once
// registered (spec.Register). The keys are the experiments' own sweep
// points, a few dozen; nothing a daemon client sends reaches this map (the
// custom experiment always carries a Spec or Set), so it needs no bound.
var presetFingerprints = struct {
	mu sync.Mutex
	m  map[presetPoint]uint64
}{m: map[presetPoint]uint64{}}

// machineName names the configured machine point for error messages.
func (c Config) machineName() string {
	if c.Spec != nil {
		return "custom spec"
	}
	return c.Mode.String()
}

// effectiveMode returns the Result.Mode label: the configured Mode, or — for
// a custom spec — the mode whose scheme the spec's companion matches.
func effectiveMode(c Config, s *spec.MachineSpec) Mode {
	if c.Spec == nil {
		return c.Mode
	}
	switch s.Companion.Kind {
	case spec.CompanionTEA:
		if s.Companion.Dedicated {
			return ModeTEADedicated
		}
		return ModeTEA
	case spec.CompanionRunahead:
		return ModeBranchRunahead
	default:
		return ModeBaseline
	}
}

// pipelineConfig converts the spec's frontend/backend/memory/predictor and
// companion-engine shape into the pipeline configuration. Behavioral fields
// (CoSim, telemetry, budgets) stay with the caller.
func pipelineConfig(s *spec.MachineSpec) pipeline.Config {
	cfg := pipeline.Config{
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
