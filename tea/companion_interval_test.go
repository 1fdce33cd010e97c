package tea

import (
	"testing"

	"teasim/tea/spec"
)

// TestCompanionOnIntervalAllKinds asserts the OnInterval contract for every
// registered companion kind: the companion annotates telemetry intervals
// with its coverage/accuracy, and sampling those intervals never perturbs
// simulation-visible state — the committed cycle and instruction counts are
// bit-identical with and without telemetry.
func TestCompanionOnIntervalAllKinds(t *testing.T) {
	for _, kind := range spec.Kinds() {
		if kind == spec.CompanionNone {
			continue
		}
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			p, err := spec.Preset(string(kind))
			if err != nil {
				t.Fatalf("kind %q has no same-named preset: %v", kind, err)
			}
			cfg := Config{
				Spec:            &p,
				MaxInstructions: 50_000,
				Scale:           1,
			}
			plain, err := Run("mcf", cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Intervals = true
			cfg.IntervalPeriod = 5_000
			sampled, err := Run("mcf", cfg)
			if err != nil {
				t.Fatal(err)
			}

			if sampled.Cycles != plain.Cycles || sampled.Instructions != plain.Instructions {
				t.Errorf("interval sampling perturbed the simulation: %d/%d cycles, %d/%d instrs",
					plain.Cycles, sampled.Cycles, plain.Instructions, sampled.Instructions)
			}
			if len(sampled.Intervals) == 0 {
				t.Fatal("no intervals sampled")
			}
			annotated := 0
			for i, iv := range sampled.Intervals {
				if iv.Coverage < 0 || iv.Coverage > 1 {
					t.Errorf("interval %d: coverage %v out of [0,1]", i, iv.Coverage)
				}
				if iv.Accuracy < 0 || iv.Accuracy > 1 {
					t.Errorf("interval %d: accuracy %v out of [0,1]", i, iv.Accuracy)
				}
				if iv.Accuracy > 0 {
					annotated++
				}
			}
			// Every companion annotates accuracy 1 for intervals with no
			// precomputations, so an all-zero column means the OnInterval
			// hook never ran for this kind.
			if annotated == 0 {
				t.Error("no interval carries an accuracy annotation; OnInterval never ran")
			}
		})
	}
}
