package spec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"teasim/internal/isa"
)

var update = flag.Bool("update", false, "rewrite golden spec files")

// TestPresetGoldens pins every registered preset's resolved spec JSON to a
// committed golden file: any drift in a preset's literals — accidental or
// deliberate — shows up as a readable diff in review.
func TestPresetGoldens(t *testing.T) {
	names := Presets()
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Indent()
			path := filepath.Join("testdata", "specs", name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./tea/spec -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("preset %q drifted from its golden %s:\n--- golden\n%s\n--- got\n%s",
					name, path, want, got)
			}
		})
	}
}

// maxValidateAllocs bounds Validate's allocations on a valid spec: its
// violation collector (a closure and the slice it appends to) escapes into
// the kind validators; the field tables stay on the stack.
const maxValidateAllocs = 2

// TestPresetsValidate asserts every registered preset passes Validate, and
// that validating one allocates no more than the violation collector.
func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q fails validation: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n > maxValidateAllocs {
			t.Errorf("preset %q: Validate makes %.0f allocations, want <= %d", name, n, maxValidateAllocs)
		}
	}
}

// TestRegisterRejectsDuplicate asserts a preset cannot be replaced once
// registered: callers cache what a preset resolves to.
func TestRegisterRejectsDuplicate(t *testing.T) {
	before, err := Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register replaced an existing preset without panicking")
			}
		}()
		Register("tea", Baseline)
	}()
	after, err := Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	if after.Fingerprint() != before.Fingerprint() {
		t.Error("the rejected registration still changed the preset")
	}
}

// TestJSONRoundTripByteStable asserts marshal → unmarshal → marshal is
// byte-identical for every preset (the canonical-encoding contract behind
// Fingerprint).
func TestJSONRoundTripByteStable(t *testing.T) {
	for _, name := range Presets() {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		first := s.Canonical()
		parsed, err := Parse(first)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		second := parsed.Canonical()
		if !bytes.Equal(first, second) {
			t.Errorf("preset %q round trip is not byte-stable:\nfirst:  %s\nsecond: %s",
				name, first, second)
		}
		if !reflect.DeepEqual(s, parsed) {
			t.Errorf("preset %q round trip changed the value:\nbefore: %+v\nafter:  %+v",
				name, s, parsed)
		}
	}
}

// TestParseRejectsUnknownFields asserts a typo'd -config field is an error,
// not a silently-default machine.
func TestParseRejectsUnknownFields(t *testing.T) {
	s := Baseline()
	data := bytes.Replace(s.Canonical(), []byte(`"rob_size"`), []byte(`"rob_sise"`), 1)
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "rob_sise") {
		t.Fatalf("Parse accepted an unknown field; err = %v", err)
	}
}

// TestFingerprint asserts equal specs fingerprint equal, any field change
// moves the fingerprint, and clones are independent.
func TestFingerprint(t *testing.T) {
	a, b := Baseline(), Baseline()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two fresh baselines fingerprint differently")
	}
	b.Frontend.FetchQueueSize = 64
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("changing fetch_queue_size did not change the fingerprint")
	}

	tea, err := Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	clone := tea.Clone()
	if tea.Fingerprint() != clone.Fingerprint() {
		t.Fatal("clone fingerprints differently from its original")
	}
	clone.Companion.TEA.FillBufSize = 1024
	clone.Predictor.TageHistLens[0] = 5
	if tea.Companion.TEA.FillBufSize != 512 || tea.Predictor.TageHistLens[0] != 4 {
		t.Fatal("mutating a clone leaked into the original")
	}
	if tea.Fingerprint() == clone.Fingerprint() {
		t.Fatal("companion edit did not change the fingerprint")
	}
}

// TestValidateErrors exercises the actionable-error paths: each broken spec
// must fail with a message naming the offending field.
func TestValidateErrors(t *testing.T) {
	teaSpec := func(mut func(*MachineSpec)) MachineSpec {
		s, err := Preset("tea")
		if err != nil {
			t.Fatal(err)
		}
		mut(&s)
		return s
	}
	cases := []struct {
		name string
		spec MachineSpec
		want string // substring of the joined error
	}{
		{
			name: "zero value",
			spec: MachineSpec{},
			want: "frontend.width must be positive",
		},
		{
			name: "negative rob",
			spec: teaSpec(func(s *MachineSpec) { s.Backend.ROBSize = -1 }),
			want: "backend.rob_size must be positive",
		},
		{
			name: "non pow2 cache sets",
			spec: teaSpec(func(s *MachineSpec) { s.Memory.LLCWays = 12 }),
			want: "llc set count",
		},
		{
			name: "tage tables out of range",
			spec: teaSpec(func(s *MachineSpec) { s.Predictor.TageTables = 13 }),
			want: "predictor.tage_tables must be in [1,12]",
		},
		{
			name: "hist lens mismatch",
			spec: teaSpec(func(s *MachineSpec) { s.Predictor.TageTables = 4 }),
			want: "predictor.tage_hist_lens has 12 lengths for 4 tables",
		},
		{
			name: "tage history longer than the buffer holds",
			spec: teaSpec(func(s *MachineSpec) { s.Predictor.TageHistLens[11] = 2049 }),
			want: "predictor.tage_hist_lens[11] must be at most 2048, got 2049",
		},
		{
			name: "non pow2 btb sets",
			spec: teaSpec(func(s *MachineSpec) { s.Predictor.BTBWays = 3 }),
			want: "btb_entries/btb_ways",
		},
		{
			name: "companion overrides on baseline",
			spec: teaSpec(func(s *MachineSpec) {
				s.Companion = Companion{Kind: CompanionNone, Dedicated: true, Ports: 16}
			}),
			want: `kind "none" has no engine`,
		},
		{
			name: "tea section on baseline",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.Kind = CompanionNone }),
			want: "set companion.kind=tea to use it",
		},
		{
			name: "tea kind without section",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.TEA = nil }),
			want: `kind "tea" requires a tea section`,
		},
		{
			name: "both sections",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.Runahead = DefaultRunahead() }),
			want: `kind "tea" conflicts with a runahead section`,
		},
		{
			name: "dedicated without ports",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.Dedicated = true }),
			want: "dedicated engine requires ports > 0",
		},
		{
			name: "ports without dedicated",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.Ports = 16 }),
			want: "only apply to a dedicated engine",
		},
		{
			name: "runahead with engine shape",
			spec: teaSpec(func(s *MachineSpec) {
				s.Companion = Companion{Kind: CompanionRunahead, Runahead: DefaultRunahead(), NoPriority: true}
			}),
			want: "runahead brings its own engine",
		},
		{
			name: "unknown kind",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.Kind = "turbo" }),
			want: `companion.kind "turbo" unknown`,
		},
		{
			name: "non pow2 block cache sets",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.TEA.BlockCacheSets = 48 }),
			want: "companion.tea.block_cache_sets must be a power of two",
		},
		{
			name: "h2p threshold above max",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.TEA.H2PThreshold = 7 }),
			want: "h2p_threshold (7) must be below h2p_max (7)",
		},
		{
			name: "rs partition swallows backend",
			spec: teaSpec(func(s *MachineSpec) { s.Companion.TEA.RSPartition = 400 }),
			want: "must leave the main thread reservation stations",
		},
		{
			name: "pregs within architectural registers",
			spec: teaSpec(func(s *MachineSpec) { s.Backend.NumPRegs = 32 }),
			want: "backend.num_pregs (32) must exceed the 32 architectural registers",
		},
		{
			name: "pr partition swallows backend",
			spec: teaSpec(func(s *MachineSpec) { s.Backend.NumPRegs = 224 }),
			want: "companion.tea.pr_partition (192) must leave the main thread more than 32 physical registers (backend.num_pregs 224)",
		},
		{
			name: "zero runahead field",
			spec: teaSpec(func(s *MachineSpec) {
				s.Companion = Companion{Kind: CompanionRunahead, Runahead: DefaultRunahead()}
				s.Companion.Runahead.QueueDepth = 0
			}),
			want: "companion.runahead.queue_depth must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a broken spec; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestArchRegs pins the validator's register rules to the µISA's
// architectural register count.
func TestArchRegs(t *testing.T) {
	if archRegs != isa.NumRegs {
		t.Fatalf("archRegs = %d, isa.NumRegs = %d", archRegs, isa.NumRegs)
	}
}

// TestValidateOrder pins the order Validate reports violations in: its rules
// run in a fixed order and each walks its section's fields in declaration
// order, so one spec always yields the same message (a daemon answering the
// same invalid request twice answers the same bytes).
func TestValidateOrder(t *testing.T) {
	breakCore := func(s *MachineSpec) {
		s.Frontend.Width = 0
		s.Frontend.FetchQueueSize = -1
		s.Frontend.FrontQCap = 0
		s.Backend.ROBSize = 0
		s.Backend.SQSize = 0
		s.Backend.FDivLat = 0
		s.Backend.LDPorts = -1
		s.Memory.L1IWays = 0
		s.Memory.L1DWays = 5
		s.Memory.LLCLat = 0
		s.Memory.LLCMSHRs = 0
		s.Predictor.TageTables = 13
		s.Predictor.BTBEntries = 0
		s.Predictor.RASEntries = 0
	}
	core := []string{
		"frontend.width must be positive, got 0",
		"frontend.fetch_queue_size must be positive, got -1",
		"frontend.front_q_cap must be positive, got 0",
		"backend.rob_size must be positive, got 0",
		"backend.sq_size must be positive, got 0",
		"backend.fdiv_lat must be positive, got 0",
		"backend.ld_ports must be non-negative, got -1",
		"memory.l1i_ways must be positive, got 0",
		"memory.llc_lat must be positive, got 0",
		"memory.llc_mshrs must be positive, got 0",
		"memory: l1d set count 153 (size 49152 / ways 5 / 64B lines) must be a positive power of two",
		"predictor.tage_tables must be in [1,12], got 13",
		"predictor.tage_hist_lens has 12 lengths for 13 tables (they must match)",
		"predictor.btb_entries must be positive, got 0",
		"predictor.ras_entries must be positive, got 0",
	}
	cases := []struct {
		preset string
		mut    func(c *Companion)
		want   []string
	}{
		{"tea", func(c *Companion) {
			c.TEA.H2PWays = 0
			c.TEA.WrongLimit = 0
			c.TEA.H2PSets = 3
			c.TEA.EmptyTagSets = 0
			c.TEA.H2PThreshold = 9
		}, []string{
			"companion.tea.h2p_ways must be positive, got 0",
			"companion.tea.wrong_limit must be positive, got 0",
			"companion.tea.h2p_sets must be a power of two (indices are computed by masking), got 3",
			"companion.tea.empty_tag_sets must be a power of two (indices are computed by masking), got 0",
			"companion.tea.h2p_threshold (9) must be below h2p_max (7) or no branch ever qualifies",
		}},
		{"runahead", func(c *Companion) {
			c.Runahead.MaxChains = 0
			c.Runahead.HistSize = 0
			c.Runahead.QueueDepth = -2
		}, []string{
			"companion.runahead.max_chains must be positive, got 0",
			"companion.runahead.queue_depth must be positive, got -2",
			"companion.runahead.hist_size must be positive, got 0",
		}},
		{"bullseye", func(c *Companion) {
			c.Bullseye.H2PWays = 0
			c.Bullseye.ConfMax = 0
			c.Bullseye.H2PSets = 0
			c.Bullseye.TableEntries = 100
		}, []string{
			"companion.bullseye.h2p_ways must be positive, got 0",
			"companion.bullseye.conf_max must be positive, got 0",
			"companion.bullseye.h2p_sets must be a power of two (indices are computed by masking), got 0",
			"companion.bullseye.table_entries must be a power of two (indices are computed by masking), got 100",
			"companion.bullseye.conf_threshold (4) must not exceed conf_max (0) or no prediction ever qualifies",
		}},
		{"ldbp", func(c *Companion) {
			c.LDBP.WindowSize = 0
			c.LDBP.StrideConf = 0
			c.LDBP.H2PSets = 6
		}, []string{
			"companion.ldbp.window_size must be positive, got 0",
			"companion.ldbp.stride_conf must be positive, got 0",
			"companion.ldbp.h2p_sets must be a power of two (indices are computed by masking), got 6",
		}},
		{"twowin", func(c *Companion) {
			c.TwoWin.WindowSize = 0
			c.TwoWin.EvalsPerCyc = 0
		}, []string{
			"companion.twowin.window_size must be positive, got 0",
			"companion.twowin.evals_per_cyc must be positive, got 0",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.preset, func(t *testing.T) {
			s, err := Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			breakCore(&s)
			tc.mut(&s.Companion)
			want := strings.Join(append(append([]string(nil), core...), tc.want...), "\n")
			for i := 0; i < 20; i++ {
				err := s.Validate()
				if err == nil {
					t.Fatal("Validate accepted a broken spec")
				}
				if got := err.Error(); got != want {
					t.Fatalf("call %d reported:\n%s\nwant:\n%s", i, got, want)
				}
			}
		})
	}
}

// TestSetPatches exercises the dotted-path patch language over every value
// kind and the companion.kind reshaping rules.
func TestSetPatches(t *testing.T) {
	t.Run("values", func(t *testing.T) {
		s, err := Preset("tea")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{
			"frontend.fetch_queue_size=64",
			"backend.alu_lat=2",
			"companion.tea.h2p_max=5",
			"companion.tea.fill_buf_size=1024",
			"companion.tea.only_loops=true",
			"companion.dedicated=true",
			"companion.ports=16",
			"predictor.tage_tables=4",
			"predictor.tage_hist_lens=4,8,13,22",
		} {
			if err := s.Set(p); err != nil {
				t.Fatalf("Set(%q): %v", p, err)
			}
		}
		if s.Frontend.FetchQueueSize != 64 || s.Backend.ALULat != 2 ||
			s.Companion.TEA.H2PMax != 5 || s.Companion.TEA.FillBufSize != 1024 ||
			!s.Companion.TEA.OnlyLoops || !s.Companion.Dedicated || s.Companion.Ports != 16 {
			t.Fatalf("patches did not land: %+v", s)
		}
		if want := []uint32{4, 8, 13, 22}; !reflect.DeepEqual(s.Predictor.TageHistLens, want) {
			t.Fatalf("hist lens patch: got %v, want %v", s.Predictor.TageHistLens, want)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("patched spec fails validation: %v", err)
		}
	})

	t.Run("kind reshapes", func(t *testing.T) {
		s := Baseline()
		if err := s.Set("companion.kind=tea"); err != nil {
			t.Fatal(err)
		}
		if s.Companion.Kind != CompanionTEA || s.Companion.TEA == nil {
			t.Fatalf("kind=tea did not install a TEA section: %+v", s.Companion)
		}
		if err := s.Set("companion.tea.walk_cycles=250"); err != nil {
			t.Fatal(err)
		}
		if err := s.Set("companion.kind=runahead"); err != nil {
			t.Fatal(err)
		}
		if s.Companion.TEA != nil || s.Companion.Runahead == nil {
			t.Fatalf("kind=runahead did not swap sections: %+v", s.Companion)
		}
		if err := s.Set("companion.kind=none"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Companion, Companion{Kind: CompanionNone}) {
			t.Fatalf("kind=none did not clear the companion: %+v", s.Companion)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, tc := range []struct{ patch, want string }{
			{"frontend.fetch_queue_size", "not of the form"},
			{"frontend.nope=3", `unknown field "nope"`},
			{"frontend=3", "is a section, not a field"},
			{"frontend.width.deep=3", "cannot descend"},
			{"frontend.width=abc", "want an integer"},
			{"companion.tea.only_loops=maybe", "want true or false"},
			{"companion.kind=turbo", `"turbo" unknown`},
		} {
			s, err := Preset("tea")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Set(tc.patch); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Set(%q) = %v, want error containing %q", tc.patch, err, tc.want)
			}
		}
		// Patching a nil section points at the kind switch.
		s := Baseline()
		err := s.Set("companion.tea.fill_buf_size=64")
		if err == nil || !strings.Contains(err.Error(), "set companion.kind first") {
			t.Errorf("nil-section patch: %v", err)
		}
	})
}

// TestBlockCacheEntries pins the capacity↔geometry conversion used by the
// sensitivity sweeps: entries round up to a power-of-two set count at fixed
// associativity.
func TestBlockCacheEntries(t *testing.T) {
	tea := DefaultTEA()
	if got := tea.BlockCacheEntries(); got != 512 {
		t.Fatalf("default Block Cache entries = %d, want 512", got)
	}
	for _, tc := range []struct{ entries, wantSets int }{
		{64, 8}, {512, 64}, {1000, 128}, {1024, 128}, {2048, 256},
	} {
		tea.SetBlockCacheEntries(tc.entries)
		if tea.BlockCacheSets != tc.wantSets {
			t.Errorf("SetBlockCacheEntries(%d): sets = %d, want %d",
				tc.entries, tea.BlockCacheSets, tc.wantSets)
		}
	}
}

// TestPresetUnknown asserts the preset lookup error names the known presets.
func TestPresetUnknown(t *testing.T) {
	_, err := Preset("warp-drive")
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("unknown-preset error should list known presets, got %v", err)
	}
}
