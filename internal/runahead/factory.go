package runahead

import (
	"teasim/internal/companion"
	"teasim/internal/pipeline"
	"teasim/tea/spec"
)

func init() {
	companion.Register(spec.CompanionRunahead,
		func(s *spec.MachineSpec, c *pipeline.Core, _ companion.Options) (companion.Instance, error) {
			return brInstance{New(*s.Companion.Runahead, c)}, nil
		})
}

// brInstance adapts Branch Runahead to the companion registry.
type brInstance struct{ b *BR }

func (i brInstance) Metrics() companion.Metrics {
	s := &i.b.Stats
	m := companion.Metrics{
		Accuracy:  s.Accuracy(),
		Coverage:  s.Coverage(),
		Covered:   s.CoveredMisp,
		Incorrect: s.IncorrectMisp,
		Uncovered: s.UncoveredMisp,
		ExtraUops: s.EngineUops,
	}
	if s.CoveredMisp > 0 {
		m.AvgCyclesSaved = float64(s.CyclesSaved) / float64(s.CoveredMisp)
	}
	return m
}
