package spec

// Fuzz targets for the two user-facing spec entry points: Parse+Validate
// (the -config path) and Set (the -set patch path). The contract under fuzz
// is "no panic, errors are errors": arbitrary input either produces a spec
// that canonicalizes deterministically or a regular error value.
//
// Seeds come from the committed preset goldens, so the fuzzer starts from
// every machine shape the simulator actually supports.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seedGoldens feeds every committed preset golden to the fuzzer.
func seedGoldens(f *testing.F) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no preset goldens found: %v", err)
	}
	var seeds [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func FuzzValidate(f *testing.F) {
	for _, data := range seedGoldens(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected input is fine; panicking on it is not
		}
		verr := s.Validate()
		// Violations come in a fixed order, so a second call reports the
		// same text.
		if again := s.Validate(); fmt.Sprint(again) != fmt.Sprint(verr) {
			t.Fatalf("Validate reported differently on a second call:\n%v\n%v", verr, again)
		}
		// Whatever Validate thought, the spec must canonicalize
		// deterministically: fingerprinting drives memo keys and journal
		// resume, so instability here silently corrupts results.
		c1, c2 := s.Canonical(), s.Canonical()
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding unstable:\n%s\n%s", c1, c2)
		}
		if verr != nil {
			return
		}
		// A valid spec must round-trip: parse(canonical) == same fingerprint.
		back, err := Parse(c1)
		if err != nil {
			t.Fatalf("valid spec's canonical form does not re-parse: %v", err)
		}
		if back.Fingerprint() != s.Fingerprint() {
			t.Fatalf("fingerprint changed across round-trip: %016x != %016x",
				back.Fingerprint(), s.Fingerprint())
		}
	})
}

func FuzzSetPatch(f *testing.F) {
	// Seed with real patch syntax from the docs and each preset as the base.
	patches := []string{
		"frontend.fetch_queue_size=64",
		"companion.tea.fill_buf_size=1024",
		"predictor.tage_hist_lens=4,8,13,22",
		"companion.kind=runahead",
		"companion.kind=none",
		"companion.kind=bullseye",
		"companion.kind=ldbp",
		"companion.kind=twowin",
		"companion.bullseye.hist_bits=12",
		"companion.ldbp.lookahead=24",
		"companion.twowin.window_size=4",
		"backend.rob_size=512",
		"nonsense",
		"a.b.c.d.e=1",
		"frontend.fetch_queue_size=",
		"=value",
	}
	for _, data := range seedGoldens(f) {
		for _, p := range patches {
			f.Add(data, p)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, patch string) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Set(patch); err != nil {
			return // a bad patch is an error, never a panic
		}
		// A patch that applied must leave an encodable spec behind.
		if len(s.Canonical()) == 0 {
			t.Fatal("patched spec has empty canonical encoding")
		}
	})
}
