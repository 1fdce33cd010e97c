package core

import (
	"teasim/internal/companion"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

func init() {
	companion.Register(spec.CompanionTEA,
		func(s *spec.MachineSpec, c *pipeline.Core, o companion.Options) (companion.Instance, error) {
			// Paranoia is behavioral, not a machine property, so it rides on
			// the run options rather than the spec tree.
			return teaInstance{New(Config{TEA: *s.Companion.TEA, Paranoia: o.Paranoia}, c)}, nil
		})
}

// teaInstance adapts the TEA thread to the companion registry.
type teaInstance struct{ t *TEA }

func (i teaInstance) Metrics() companion.Metrics {
	s := &i.t.Stats
	m := companion.Metrics{
		Accuracy:       s.Accuracy(),
		Coverage:       s.Coverage(),
		Covered:        s.CoveredMisp,
		Late:           s.LateMisp,
		Incorrect:      s.IncorrectMisp,
		Uncovered:      s.UncoveredMisp,
		AvgCyclesSaved: s.AvgCyclesSaved(),
		EarlyFlushes:   s.EarlyFlushes,
		ExtraUops:      s.UopsFetched,
	}
	return m
}
