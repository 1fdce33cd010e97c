package pipeline_test

import (
	"fmt"
	"testing"

	"teasim/internal/pipeline"
)

// TestFetchL1Latency runs mcf under co-simulation at L1 hit latencies
// around the presets' 4 cycles. Fetch folds the configured L1I hit latency
// into the frontend depth, so every latency must run to its budget; an I-cache
// hit must never look like a miss and stall fetch forever.
func TestFetchL1Latency(t *testing.T) {
	for _, lat := range []uint64{1, 4, 5, 8, 20} {
		t.Run(fmt.Sprint(lat), func(t *testing.T) {
			c := runMCF(t, func(cfg *pipeline.Config) {
				cfg.CoSim = true
				cfg.Memory.L1Lat = lat
			}, 0)
			if c.Stats.Retired < c.Cfg.MaxInstructions {
				t.Errorf("retired %d of %d instructions", c.Stats.Retired, c.Cfg.MaxInstructions)
			}
		})
	}
}
