package bpred

import (
	"testing"

	"teasim/tea/spec"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestValidateGuardsNewWithConfig pins spec.Validate to the constructor it
// guards: for every row, Validate rejects the machine exactly when
// NewWithConfig panics on its predictor section. The TAGE limits are
// declared on both sides (spec's maxTageTables and maxTageHistLen, this
// package's nTables and MaxFoldLen); the rows sit on each side of both.
func TestValidateGuardsNewWithConfig(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(p *spec.Predictor)
		invalid bool
	}{
		{"12 tables", func(p *spec.Predictor) {}, false},
		{"13 tables", func(p *spec.Predictor) {
			p.TageTables = 13
			p.TageHistLens = append(p.TageHistLens, 2000)
		}, true},
		{"MaxFoldLen history", func(p *spec.Predictor) { p.TageHistLens[11] = MaxFoldLen }, false},
		{"MaxFoldLen+1 history", func(p *spec.Predictor) { p.TageHistLens[11] = MaxFoldLen + 1 }, true},
		{"zero history", func(p *spec.Predictor) { p.TageHistLens[0] = 0 }, true},
		{"fewer lengths than tables", func(p *spec.Predictor) { p.TageHistLens = p.TageHistLens[:11] }, true},
		{"BTB sets not a power of two", func(p *spec.Predictor) { p.BTBWays = 3 }, true},
		{"zero RAS entries", func(p *spec.Predictor) { p.RASEntries = 0 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec.Baseline()
			tc.mut(&s.Predictor)
			verr := s.Validate()
			panicked := panics(func() { NewWithConfig(s.Predictor) })
			if (verr != nil) != panicked {
				t.Fatalf("Validate error %v, but NewWithConfig panicked = %v", verr, panicked)
			}
			if panicked != tc.invalid {
				t.Fatalf("NewWithConfig panicked = %v, want %v (Validate: %v)", panicked, tc.invalid, verr)
			}
		})
	}
}
