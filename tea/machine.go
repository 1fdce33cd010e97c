package tea

import (
	"fmt"
	"sync"

	"teasim/tea/spec"
)

// ResolvedSpec resolves the machine point this configuration simulates:
// Config.Spec (or, when nil, the Mode's preset) with the Set patches applied
// in order, then validated. The result is what RunContext builds the
// simulator from and what SpecFingerprint hashes, so two configs resolving
// to equal specs simulate identical machines. A patch naming a companion
// section the machine lacks ("companion.tea.only_loops=true" on the
// baseline) fails here, before anything simulates.
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
		fp, ok := presetFingerprints.m[c.Mode]
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
		presetFingerprints.m[c.Mode] = fp
		presetFingerprints.mu.Unlock()
	}
	return fp, nil
}

// presetFingerprints caches SpecFingerprint by Mode for the life of the
// process. Entries never go stale because presets are immutable once
// registered (spec.Register), and there is one per Mode, so the map needs
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
