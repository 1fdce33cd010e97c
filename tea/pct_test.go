package tea

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPctMatchesSprintf pins pct to the fmt verb it replaces, including the
// signed zeros, rounding ties and non-finite ratios.
func TestPctMatchesSprintf(t *testing.T) {
	ratios := []float64{
		1, 0, -1, 2, 0.5, 1.25, 0.9, 1e9, -1e9,
		0.9996, 1.0004, 0.9995, 1.0005, 0.99949, 1.00051,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ratios = append(ratios, 1+rng.NormFloat64()/10, math.Round(rng.Float64()*20000)/10000)
	}
	for _, r := range ratios {
		if got, want := pct(r), fmt.Sprintf("%+.1f%%", 100*(r-1)); got != want {
			t.Errorf("pct(%v) = %q, want %q", r, got, want)
		}
	}
}
