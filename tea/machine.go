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
// stamped into Result.SpecHash. A preset point's fingerprint is served from
// the preset-point cache (see resolve), so deriving its memo key does not
// allocate; configs with a Spec or Set patches resolve on every call.
func (c Config) SpecFingerprint() (uint64, error) {
	_, fp, err := c.resolve()
	return fp, err
}

// resolve returns the machine this configuration simulates and its
// fingerprint. A preset point (no Spec, no Set: the Mode alone names the
// machine) is resolved, validated and hashed once per process and then
// served from a cache, so every cell of that point shares one spec: callers
// must only read it (the simulator packages copy or read their sections,
// and tea/shared_program_test.go runs every kind on it from eight
// goroutines under -race). Other configs resolve on every call.
func (c Config) resolve() (*spec.MachineSpec, uint64, error) {
	if c.Spec != nil || len(c.Set) > 0 {
		s, err := c.ResolvedSpec()
		if err != nil {
			return nil, 0, err
		}
		return &s, s.Fingerprint(), nil
	}
	m := c.Mode.orBaseline()
	presetPoints.mu.Lock()
	p := presetPoints.m[m]
	presetPoints.mu.Unlock()
	if p != nil {
		return &p.spec, p.fp, nil
	}
	s, err := c.ResolvedSpec()
	if err != nil {
		return nil, 0, err // never cached: every call reports it
	}
	presetPoints.mu.Lock()
	defer presetPoints.mu.Unlock()
	if p = presetPoints.m[m]; p == nil {
		p = &presetPoint{spec: s, fp: s.Fingerprint()}
		presetPoints.m[m] = p
	}
	return &p.spec, p.fp, nil
}

// presetPoint is one preset point's resolved spec and its fingerprint.
type presetPoint struct {
	spec spec.MachineSpec
	fp   uint64
}

// presetPoints caches resolve by Mode for the life of the process. Entries
// never go stale because presets are immutable once registered
// (spec.Register), and there is at most one per registered preset (an
// unknown Mode fails to resolve and is never cached), so the map needs no
// bound. TestPresetPointCoversConfig fails when ResolvedSpec starts reading
// a Config field other than Mode, Spec and Set.
var presetPoints = struct {
	mu sync.Mutex
	m  map[Mode]*presetPoint
}{m: map[Mode]*presetPoint{}}

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
