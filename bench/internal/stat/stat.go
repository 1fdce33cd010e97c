// Package stat holds the benchmark's summary statistics: medians,
// quartiles computed exactly as Python's statistics.quantiles(n=4) does, the
// tail-percentile rule, and the two-set comparison rule.
package stat

import (
	"math"
	"slices"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// Median returns the median of xs (NaN when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns Q1, Q2 and Q3 with the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), so spreads computed here match a Python
// script's digit for digit. A single sample is its own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance as a share of the median: the noise
// figure every bound is checked against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (NaN when empty).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// tailLadder lists the percentiles the tail rule may pick, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// TailPct is the tail rule: the highest percentile of the ladder that has at
// least ten samples beyond it among n, or 0 when not even the median does.
// 1800 samples give p99, 400 give p95.
func TailPct(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1-p/100) ≥ 10, tolerant of 100-99.9 rounding
			return p
		}
	}
	return 0
}

// Tail returns the tail-rule percentile of xs and the percentile it used
// (the maximum, reported as p100, when fewer than 20 samples exist).
func Tail(xs []float64) (value, pct float64) {
	p := TailPct(len(xs))
	if p == 0 {
		p = 100
	}
	return Percentile(xs, p), p
}
