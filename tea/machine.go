package tea

import (
	"fmt"
	"sync"

	"teasim/tea/spec"
)

// ResolvedSpec resolves the machine point this configuration simulates:
// Config.Spec (or, when nil, the preset the Mode names) with the Set patches
// applied in order, then validated. The result is what RunContext builds the
// simulator from and what SpecFingerprint hashes, so two configs resolving
// to equal specs simulate identical machines. An unknown Mode fails here
// with the list of presets, and so does a patch naming a companion section
// the machine lacks ("companion.tea.only_loops=true" on the baseline),
// before anything simulates.
func (c Config) ResolvedSpec() (spec.MachineSpec, error) {
	var s spec.MachineSpec
	if c.Spec != nil {
		s = c.Spec.Clone()
	} else {
		var err error
		if s, err = spec.Preset(c.Mode.String()); err != nil {
			return spec.MachineSpec{}, err
		}
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
// stamped into Result.SpecHash. A preset point's fingerprint (no Spec, no
// Set: the Mode alone names the machine) is resolved once per process and
// then served from a cache, so deriving its memo key does not allocate;
// configs with a Spec or Set patches resolve on every call.
func (c Config) SpecFingerprint() (uint64, error) {
	cacheable := c.Spec == nil && len(c.Set) == 0
	if cacheable {
		presetFingerprints.mu.Lock()
		fp, ok := presetFingerprints.m[c.Mode.orBaseline()]
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
		presetFingerprints.m[c.Mode.orBaseline()] = fp
		presetFingerprints.mu.Unlock()
	}
	return fp, nil
}

// presetFingerprints caches SpecFingerprint by Mode for the life of the
// process. Entries never go stale because presets are immutable once
// registered (spec.Register), and there is at most one per registered preset
// (an unknown Mode fails to resolve and is never cached), so the map needs
// no bound. TestPresetPointCoversConfig fails when ResolvedSpec starts
// reading a Config field other than Mode, Spec and Set.
var presetFingerprints = struct {
	mu sync.Mutex
	m  map[Mode]uint64
}{m: map[Mode]uint64{}}

// machineName names the configured machine point for error messages.
func (c Config) machineName() string {
	if c.Spec != nil {
		return "custom spec"
	}
	return c.Mode.String()
}

// label returns the Result.Mode label of a run that resolved to s: the
// Mode, or for a custom spec its companion kind ("baseline" for none).
func (c Config) label(s *spec.MachineSpec) Mode {
	switch {
	case c.Spec == nil:
		return c.Mode.orBaseline()
	case s.Companion.Kind == spec.CompanionNone:
		return ModeBaseline
	}
	return Mode(s.Companion.Kind)
}
