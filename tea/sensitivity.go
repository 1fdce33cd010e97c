package tea

import (
	"context"
	"fmt"

	"teasim/tea/spec"
)

// SensRow is one point of a structure-size sensitivity sweep.
type SensRow struct {
	Workload string
	Value    int
	Speedup  float64 // over the same workload's baseline
	Coverage float64
	Accuracy float64
	// Instructions is the sweep point's simulated instruction count (the
	// workload's shared baseline is folded into its first row) for
	// benchmark alloc accounting; not part of the rendered reports.
	Instructions uint64 `json:"-"`
	// Err annotates a quarantined sweep point (ExpOptions.Partial).
	Err string `json:"Err,omitempty"`
}

// SensParam identifies a sweepable TEA/core structure.
type SensParam string

// Sweepable parameters (the paper's §IV-B/C sensitivity discussions).
const (
	SensBlockCache SensParam = "blockcache" // Block Cache data entries
	SensFillBuffer SensParam = "fillbuffer" // Fill Buffer size
	SensH2PDecay   SensParam = "h2pdecay"   // H2P decrement period
	SensLead       SensParam = "lead"       // shadow fetch queue depth
	SensFetchQueue SensParam = "fetchqueue" // main fetch queue entries
)

// SensDefaults returns the values the catalog's sens-* experiment sweeps
// for a parameter.
func SensDefaults(p SensParam) []int {
	switch p {
	case SensBlockCache:
		return []int{64, 128, 256, 512, 1024, 2048}
	case SensFillBuffer:
		return []int{128, 256, 512, 1024}
	case SensH2PDecay:
		return []int{10_000, 50_000, 250_000}
	case SensLead:
		return []int{1, 2, 4, 8, 16}
	case SensFetchQueue:
		return []int{32, 64, 128, 256}
	}
	return nil
}

// Patch renders one sweep point as a dotted-path spec patch (the
// spec.MachineSpec.Set form), making every sweep a pure data edit of the TEA
// preset. Capacity-valued parameters are converted to the spec's geometry:
// SensBlockCache entries become the set count spec.TEA.SetBlockCacheEntries
// picks at the preset's associativity.
func (p SensParam) Patch(value int) (string, error) {
	switch p {
	case SensBlockCache:
		t := spec.DefaultTEA()
		t.SetBlockCacheEntries(value)
		return fmt.Sprintf("companion.tea.block_cache_sets=%d", t.BlockCacheSets), nil
	case SensFillBuffer:
		return fmt.Sprintf("companion.tea.fill_buf_size=%d", value), nil
	case SensH2PDecay:
		return fmt.Sprintf("companion.tea.h2p_decay_period=%d", value), nil
	case SensLead:
		return fmt.Sprintf("companion.tea.max_lead_blocks=%d", value), nil
	case SensFetchQueue:
		return fmt.Sprintf("frontend.fetch_queue_size=%d", value), nil
	}
	return "", fmt.Errorf("tea: unknown sensitivity parameter %q", p)
}

// sensitivity sweeps one parameter over the given values for every
// workload in o, measuring TEA speedup over the baseline. Every sweep point
// is the ModeTEA preset plus one spec patch (SensParam.Patch); the full
// workload × value matrix plus the per-workload baselines dispatch as one
// engine batch. Points that patch a field back to its preset value
// fingerprint identically to the plain preset, so the engine simulates them
// once across sweeps.
func sensitivity(ctx context.Context, p SensParam, values []int, o ExpOptions) ([]SensRow, error) {
	stride := 1 + len(values) // baseline + one job per value, per workload
	jobs := make([]Job, 0, stride*len(o.Workloads))
	for _, name := range o.Workloads {
		jobs = append(jobs, o.job(name, o.cfg(ModeBaseline)))
		for _, v := range values {
			patch, err := p.Patch(v)
			if err != nil {
				return nil, err
			}
			cfg := o.cfg(ModeTEA)
			cfg.Set = []string{patch}
			jobs = append(jobs, o.job(name, cfg))
		}
	}
	res, err := o.mapJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]SensRow, 0, len(values)*len(o.Workloads))
	for i, name := range o.Workloads {
		base := res[i*stride]
		for j, v := range values {
			r := res[i*stride+1+j]
			instrs := r.Instructions
			if j == 0 {
				instrs += base.Instructions
			}
			row := SensRow{
				Workload:     name,
				Value:        v,
				Coverage:     r.Coverage,
				Accuracy:     r.Accuracy,
				Instructions: instrs,
			}
			switch {
			case base.Err != "":
				row.Err = base.Err
			case r.Err != "":
				row.Err = r.Err
			case r.Cycles > 0:
				row.Speedup = float64(base.Cycles) / float64(r.Cycles)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
