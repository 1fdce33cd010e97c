package spec

import (
	"errors"
	"fmt"
)

// maxTageTables is the implementation capacity of the TAGE predictor (the
// per-prediction context carries fixed-size per-table state).
const maxTageTables = 12

// maxTageHistLen is the longest TAGE history the predictor can fold
// (bpred.MaxFoldLen): half of its 4096-bit history buffer, the other half
// left for the pushes in flight, whose outgoing bits rewind recovery
// re-reads. internal/bpred's tests hold both limits to bpred.NewWithConfig.
const maxTageHistLen = 2048

// archRegs is the µISA's architectural register count (isa.NumRegs, kept
// here so the package stays stdlib-only). Rename needs a free physical
// register beyond the ones that hold architectural state.
const archRegs = 32

// field is one named integer parameter in a validation table. Tables list
// their fields in the section's declaration order, so Validate reports
// violations in a fixed order.
type field struct {
	name string
	v    int
}

// positive reports every field of the table that is not positive.
func positive(bad func(string, ...any), section string, fields []field) {
	for _, f := range fields {
		if f.v <= 0 {
			bad("%s.%s must be positive, got %d", section, f.name, f.v)
		}
	}
}

// powersOfTwo reports every field of the table that is not a positive power
// of two.
func powersOfTwo(bad func(string, ...any), section string, fields []field) {
	for _, f := range fields {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			bad("%s.%s must be a power of two (indices are computed by masking), got %d", section, f.name, f.v)
		}
	}
}

// Validate checks the spec against the simulator's structural requirements
// and the companion cross-field rules, returning every violation (joined)
// with an actionable message. The rules run in a fixed order, each walking
// its section's fields in declaration order, so one spec always yields the
// same message. A spec that validates builds without panics.
func (s *MachineSpec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	positive(bad, "frontend", []field{
		{"width", s.Frontend.Width},
		{"retire_width", s.Frontend.RetireWidth},
		{"fetch_queue_size", s.Frontend.FetchQueueSize},
		{"max_block_instrs", s.Frontend.MaxBlockInstrs},
		{"fetch_lines_per_cyc", s.Frontend.FetchLinesPerCyc},
		{"front_q_cap", s.Frontend.FrontQCap},
	})

	positive(bad, "backend", []field{
		{"rob_size", s.Backend.ROBSize},
		{"rs_size", s.Backend.RSSize},
		{"num_pregs", s.Backend.NumPRegs},
		{"lq_size", s.Backend.LQSize},
		{"sq_size", s.Backend.SQSize},
		{"alu_lat", int(s.Backend.ALULat)},
		{"mul_lat", int(s.Backend.MulLat)},
		{"div_lat", int(s.Backend.DivLat)},
		{"fp_lat", int(s.Backend.FPLat)},
		{"fdiv_lat", int(s.Backend.FDivLat)},
	})
	if n := s.Backend.NumPRegs; n > 0 && n <= archRegs {
		bad("backend.num_pregs (%d) must exceed the %d architectural registers or rename never finds a free one",
			n, archRegs)
	}
	if s.Backend.Ports() <= 0 {
		bad("backend: at least one execution port is required (alu+ld+ldst+fp = %d)", s.Backend.Ports())
	}
	for _, f := range []field{
		{"alu_ports", s.Backend.ALUPorts}, {"ld_ports", s.Backend.LDPorts},
		{"ldst_ports", s.Backend.LDSTPorts}, {"fp_ports", s.Backend.FPPorts},
	} {
		if f.v < 0 {
			bad("backend.%s must be non-negative, got %d", f.name, f.v)
		}
	}

	positive(bad, "memory", []field{
		{"l1i_size", s.Memory.L1ISize}, {"l1i_ways", s.Memory.L1IWays},
		{"l1d_size", s.Memory.L1DSize}, {"l1d_ways", s.Memory.L1DWays},
		{"llc_size", s.Memory.LLCSize}, {"llc_ways", s.Memory.LLCWays},
		{"l1_lat", int(s.Memory.L1Lat)}, {"llc_lat", int(s.Memory.LLCLat)},
		{"l1_mshrs", s.Memory.L1MSHRs}, {"llc_mshrs", s.Memory.LLCMSHRs},
	})
	// Cache sets = size / (ways × 64B line); indices are masked.
	for _, c := range []struct {
		name       string
		size, ways int
	}{
		{"l1i", s.Memory.L1ISize, s.Memory.L1IWays},
		{"l1d", s.Memory.L1DSize, s.Memory.L1DWays},
		{"llc", s.Memory.LLCSize, s.Memory.LLCWays},
	} {
		if c.size <= 0 || c.ways <= 0 {
			continue // already reported above
		}
		if sets := c.size / c.ways / 64; sets <= 0 || sets&(sets-1) != 0 {
			bad("memory: %s set count %d (size %d / ways %d / 64B lines) must be a positive power of two",
				c.name, sets, c.size, c.ways)
		}
	}

	p := &s.Predictor
	if p.TageTables < 1 || p.TageTables > maxTageTables {
		bad("predictor.tage_tables must be in [1,%d], got %d", maxTageTables, p.TageTables)
	}
	if len(p.TageHistLens) != p.TageTables {
		bad("predictor.tage_hist_lens has %d lengths for %d tables (they must match)",
			len(p.TageHistLens), p.TageTables)
	}
	for i, l := range p.TageHistLens {
		if l == 0 {
			bad("predictor.tage_hist_lens[%d] must be positive", i)
		} else if l > maxTageHistLen {
			bad("predictor.tage_hist_lens[%d] must be at most %d, got %d", i, maxTageHistLen, l)
		}
	}
	positive(bad, "predictor", []field{
		{"btb_entries", p.BTBEntries},
		{"btb_ways", p.BTBWays},
		{"ras_entries", p.RASEntries},
	})
	if p.BTBEntries > 0 && p.BTBWays > 0 {
		powersOfTwo(bad, "predictor", []field{{"btb_entries/btb_ways (set count)", p.BTBEntries / p.BTBWays}})
	}

	s.validateCompanion(&errs, bad)
	return errors.Join(errs...)
}

// validateCompanion enforces the kind cross-field rules against the kind
// registry: exactly the section named by Kind is populated and engine shape
// fields are only set for kinds that share the main core's engine.
func (s *MachineSpec) validateCompanion(errs *[]error, bad func(string, ...any)) {
	c := &s.Companion
	info, ok := LookupKind(c.Kind)
	if !ok {
		bad("companion.kind %q unknown (registered kinds: %s)", c.Kind, kindList())
		return
	}
	for _, k := range kindOrder {
		other := kindRegistry[k]
		if other.Kind == c.Kind || other.Has == nil || !other.Has(c) {
			continue
		}
		if info.Has == nil {
			bad(`companion: kind %q must not carry a %s section (set companion.kind=%s to use it)`,
				c.Kind, other.Kind, other.Kind)
		} else {
			bad(`companion: kind %q conflicts with a %s section; remove one`, c.Kind, other.Kind)
		}
	}
	if info.Engine {
		if c.Dedicated && c.Ports <= 0 {
			bad("companion: dedicated engine requires ports > 0, got %d", c.Ports)
		}
		if !c.Dedicated && c.Ports != 0 {
			bad("companion: ports (%d) only apply to a dedicated engine; set dedicated=true", c.Ports)
		}
	} else if c.Dedicated || c.Ports != 0 || c.NoPriority {
		if info.Has == nil {
			bad(`companion: kind %q has no engine; dedicated/ports/no_priority must be unset`, c.Kind)
		} else {
			bad(`companion: %s brings its own engine; dedicated/ports/no_priority must be unset`, c.Kind)
		}
	}
	if info.Has != nil {
		if !info.Has(c) {
			bad(`companion: kind %q requires a %s section (%s)`, c.Kind, c.Kind, info.Hint)
		} else if info.Validate != nil {
			info.Validate(s, bad)
		}
	}
}

func validateTEA(t *TEA, bad func(string, ...any)) {
	positive(bad, "companion.tea", []field{
		{"h2p_ways", t.H2PWays},
		{"h2p_decay_period", int(t.H2PDecayPeriod)},
		{"fill_buf_size", t.FillBufSize},
		{"walk_cycles", int(t.WalkCycles)},
		{"source_mem_size", t.SourceMemSize},
		{"block_cache_ways", t.BlockCacheWays},
		{"empty_tag_ways", t.EmptyTagWays},
		{"seg_max_uops", t.SegMaxUops},
		{"max_lead_blocks", t.MaxLeadBlocks},
		{"rs_partition", t.RSPartition},
		{"pr_partition", t.PRPartition},
		{"store_cache_lines", t.StoreCacheLines},
		{"store_wait_window", t.StoreWaitWindow},
		{"late_limit", t.LateLimit},
		{"wrong_limit", t.WrongLimit},
	})
	powersOfTwo(bad, "companion.tea", []field{
		{"h2p_sets", t.H2PSets},
		{"block_cache_sets", t.BlockCacheSets},
		{"empty_tag_sets", t.EmptyTagSets},
	})
	if t.H2PThreshold >= t.H2PMax {
		bad("companion.tea.h2p_threshold (%d) must be below h2p_max (%d) or no branch ever qualifies",
			t.H2PThreshold, t.H2PMax)
	}
}

func validateRunahead(r *Runahead, bad func(string, ...any)) {
	positive(bad, "companion.runahead", []field{
		{"max_chains", r.MaxChains},
		{"max_chain_uops", r.MaxChainUops},
		{"queue_depth", r.QueueDepth},
		{"max_instances", r.MaxInstances},
		{"engine_width", r.EngineWidth},
		{"recapture_every", r.RecaptureEvery},
		{"disable_after", r.DisableAfter},
		{"hist_size", r.HistSize},
	})
}
