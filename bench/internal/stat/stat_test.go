package stat

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1800, 99}, {400, 95}, {10000, 99.9}, {100, 90}, {20, 50}, {19, 0}} {
		if got := TailPct(tc.n); got != tc.want {
			t.Errorf("TailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := Tail(xs)
	if p != 95 || math.Abs(v-Percentile(xs, 95)) > 1e-12 {
		t.Errorf("Tail of 400 samples = %v at p%v, want the p95", v, p)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	if p := Percentile([]float64{0, 10}, 50); p != 5 {
		t.Errorf("Percentile = %v, want 5", p)
	}
}
