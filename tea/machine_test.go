package tea

// Machine-spec resolution tests: the preset registry behind Mode and the
// resolution-order rules of Config.ResolvedSpec. Each preset's values are
// pinned by tea/spec's TestPresetGoldens; real-run equivalence (preset spec
// vs mode, patch vs hand-edited spec) lives in spec_equivalence_test.go.

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teasim/tea/spec"
)

// TestModePresetRegistry pins the one name per machine point: a Mode is a
// registered preset's name, spec.Preset is the only place a name is looked
// up, and a Result is labeled by the name it ran under.
func TestModePresetRegistry(t *testing.T) {
	const budget = 2_000
	for _, name := range spec.Presets() {
		want, err := spec.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Mode: Mode(name), MaxInstructions: budget}
		if fp, err := cfg.SpecFingerprint(); err != nil || fp != want.Fingerprint() {
			t.Errorf("%s: fingerprint %016x (err %v), want spec.Preset's %016x", name, fp, err, want.Fingerprint())
		}
		res, err := Run("mcf", cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Mode != Mode(name) {
			t.Errorf("-mode %s: result labeled %q", name, res.Mode)
		}
	}

	// An unknown name fails resolution, and the error lists the presets.
	_, err := Config{Mode: "warp-drive"}.ResolvedSpec()
	if err == nil {
		t.Fatal("unknown mode resolved")
	}
	for _, name := range spec.Presets() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-mode error %q does not list preset %q", err, name)
		}
	}

	// A custom spec is labeled by its companion kind, "baseline" for none.
	for preset, label := range map[string]Mode{
		"baseline":      ModeBaseline,
		"wide16":        ModeBaseline,
		"tea":           ModeTEA,
		"tea-dedicated": ModeTEA,
		"tea-bigengine": ModeTEA,
		"runahead":      ModeBranchRunahead,
		"ldbp":          "ldbp",
	} {
		s, err := spec.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run("mcf", Config{Spec: &s, MaxInstructions: budget})
		if err != nil {
			t.Fatalf("%s as a custom spec: %v", preset, err)
		}
		if res.Mode != label {
			t.Errorf("%s as a custom spec: labeled %q, want %q", preset, res.Mode, label)
		}
	}

	// The zero Mode resolves, keys and labels as baseline.
	zero, named := Config{MaxInstructions: budget}, Config{Mode: ModeBaseline, MaxInstructions: budget}
	zfp, err := zero.SpecFingerprint()
	if nfp, _ := named.SpecFingerprint(); err != nil || zfp != nfp {
		t.Errorf("zero Mode fingerprint %016x (err %v), baseline %016x", zfp, err, nfp)
	}
	zk, _ := MemoKeyOf("mcf", zero)
	if nk, _ := MemoKeyOf("mcf", named); zk != nk || zk.Mode != ModeBaseline {
		t.Errorf("zero Mode keyed %v, baseline %v", zk, nk)
	}
	res, err := Run("mcf", zero)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(res); res.Mode != ModeBaseline || !strings.Contains(string(b), `"mode":"baseline"`) {
		t.Errorf("zero Mode labeled %q: %s", res.Mode, b)
	}
	if got := Mode("").String(); got != "baseline" {
		t.Errorf("zero Mode prints %q", got)
	}
}

// TestModeJSONRoundTrip pins the JSON form a Mode takes in wire configs and
// stored results: its preset name, decoded back with no codec of its own, so
// an unknown name survives decoding and is rejected only by ResolvedSpec.
func TestModeJSONRoundTrip(t *testing.T) {
	for _, name := range append(spec.Presets(), "") {
		in := Mode(name)
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if want := `"` + in.String() + `"`; string(b) != want {
			t.Errorf("Mode %q encodes as %s, want %s", name, b, want)
		}
		var out Mode
		if err := json.Unmarshal(b, &out); err != nil || out != in.orBaseline() {
			t.Errorf("%s decodes as %q (err %v), want %q", b, out, err, in.orBaseline())
		}
		want, err := spec.Preset(in.String())
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := (Config{Mode: out}).SpecFingerprint(); err != nil || fp != want.Fingerprint() {
			t.Errorf("decoded %q: fingerprint %016x (err %v), want %016x", out, fp, err, want.Fingerprint())
		}
	}

	var cfg struct{ Mode Mode }
	if err := json.Unmarshal([]byte(`{"Mode":"warp-drive"}`), &cfg); err != nil || cfg.Mode != "warp-drive" {
		t.Fatalf("unknown name decoded as %q (err %v), want it kept", cfg.Mode, err)
	}
	if _, err := (Config{Mode: cfg.Mode}).ResolvedSpec(); err == nil {
		t.Fatal("decoded unknown mode resolved")
	}
}

// TestResolvedSpecOrder asserts the resolution order: explicit spec (or
// preset) → Set patches in order, with later patches winning, and an
// explicit spec left untouched.
func TestResolvedSpecOrder(t *testing.T) {
	cfg := Config{
		Mode: ModeTEA,
		Set: []string{
			"companion.tea.only_loops=true",
			"companion.tea.fill_buf_size=256",
			"companion.tea.fill_buf_size=1024",
		},
	}
	s, err := cfg.ResolvedSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Companion.TEA.OnlyLoops {
		t.Error("ablation patch did not reach the resolved spec")
	}
	if s.Companion.TEA.FillBufSize != 1024 {
		t.Errorf("fill_buf_size = %d; the later patch must win", s.Companion.TEA.FillBufSize)
	}

	custom, err := spec.Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	custom.Companion.TEA.FillBufSize = 256
	cfg = Config{Spec: &custom, Set: []string{"companion.tea.fill_buf_size=1024"}}
	if s, err = cfg.ResolvedSpec(); err != nil {
		t.Fatal(err)
	}
	if s.Companion.TEA.FillBufSize != 1024 || custom.Companion.TEA.FillBufSize != 256 {
		t.Errorf("fill_buf_size resolved %d (spec now %d); the patch must win over the spec and leave it untouched",
			s.Companion.TEA.FillBufSize, custom.Companion.TEA.FillBufSize)
	}

	// A Block Cache sweep point rounds up to a power-of-two set count at
	// the preset's associativity, so each default point (a power of two)
	// resolves to exactly its capacity.
	for entries, want := range map[int]int{1000: 1024, 64: 64, 128: 128, 256: 256, 512: 512, 1024: 1024, 2048: 2048} {
		patch, err := SensBlockCache.Patch(entries)
		if err != nil {
			t.Fatal(err)
		}
		if s, err = (Config{Mode: ModeTEA, Set: []string{patch}}).ResolvedSpec(); err != nil {
			t.Fatal(err)
		}
		if got := s.Companion.TEA.BlockCacheEntries(); got != want {
			t.Errorf("%d Block Cache entries resolved to %d, want %d", entries, got, want)
		}
	}
}

// TestResolvedSpecRejectsCompanionOverridesOnBaseline asserts TEA-only
// patches error on TEA-less machines instead of being silently dropped.
func TestResolvedSpecRejectsCompanionOverridesOnBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ablation", Config{Mode: ModeBaseline, Set: []string{"companion.tea.only_loops=true"}}},
		{"size override", Config{Mode: ModeBaseline, Set: []string{"companion.tea.fill_buf_size=256"}}},
		{"wide16 ablation", Config{Mode: ModeWide16, Set: []string{"companion.tea.no_mem=true"}}},
		{"runahead tea override", Config{Mode: ModeBranchRunahead, Set: []string{"companion.tea.block_cache_sets=8"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.ResolvedSpec()
			if err == nil || !strings.Contains(err.Error(), "companion.tea is not populated") {
				t.Fatalf("ResolvedSpec = %v, want a companion.tea-not-populated error", err)
			}
			// And the run itself fails the same way.
			if _, err := Run("bfs", tc.cfg); err == nil {
				t.Fatal("Run accepted a config whose spec cannot resolve")
			}
		})
	}

	// An invalid patch is also rejected at resolution.
	_, err := Config{Mode: ModeBaseline, Set: []string{"backend.rob_size=-1"}}.ResolvedSpec()
	if err == nil || !strings.Contains(err.Error(), "rob_size") {
		t.Fatalf("negative rob_size resolved: %v", err)
	}
}

// TestSpecFingerprintEquivalences asserts the identities the memo cache
// relies on: patch sequences and hand-edited specs fingerprint identically
// when they describe the same machine.
func TestSpecFingerprintEquivalences(t *testing.T) {
	fp := func(c Config) uint64 {
		t.Helper()
		v, err := c.SpecFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	plain := fp(Config{Mode: ModeTEA})
	if redundant := fp(Config{Mode: ModeTEA, Set: []string{"companion.tea.fill_buf_size=512"}}); redundant != plain {
		t.Error("patch to the preset value changed the fingerprint")
	}
	patched := fp(Config{Mode: ModeTEA, Set: []string{"companion.tea.fill_buf_size=1024"}})
	repatched := fp(Config{Mode: ModeTEA, Set: []string{
		"companion.tea.fill_buf_size=256", "companion.tea.fill_buf_size=1024"}})
	if repatched != patched {
		t.Error("a superseded patch changed the fingerprint")
	}
	if patched == plain {
		t.Error("changing the fill buffer did not change the fingerprint")
	}

	teaSpec, err := spec.Preset("tea")
	if err != nil {
		t.Fatal(err)
	}
	teaSpec.Companion.TEA.FillBufSize = 1024
	if explicit := fp(Config{Spec: &teaSpec}); explicit != patched {
		t.Error("hand-edited spec and its -set patch fingerprint differently")
	}

	// Behavioral knobs (CoSim, idle skip, telemetry) are not machine state.
	if cosim := fp(Config{Mode: ModeTEA, CoSim: true}); cosim != plain {
		t.Error("CoSim changed the machine fingerprint")
	}
}

// freshFingerprint resolves a config's spec from scratch, bypassing the
// preset-point cache: the oracle for SpecFingerprint.
func freshFingerprint(c Config) (uint64, error) {
	s, err := c.ResolvedSpec()
	if err != nil {
		return 0, err
	}
	return s.Fingerprint(), nil
}

// TestPresetPointCoversConfig guards the fingerprint cache's key. For every
// exported bool or integer Config field, a config that differs from a warm
// preset point in that field alone must fingerprint as a fresh resolution
// does. A field that ResolvedSpec reads but the cache key (the Mode of a
// config with no Spec and no Set) omits would be served the warm point's
// fingerprint and fail here.
func TestPresetPointCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for _, name := range spec.Presets() {
		m := Mode(name)
		base := Config{Mode: m}
		if _, err := base.SpecFingerprint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				continue
			}
			c := base
			// 3 differs from every preset's value of every override.
			switch v := reflect.ValueOf(&c).Elem().Field(i); v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(3)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(3)
			default:
				continue
			}
			got, gotErr := c.SpecFingerprint()
			want, wantErr := freshFingerprint(c)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%v with %s set: SpecFingerprint = %016x (err %v), fresh resolution = %016x (err %v)",
					m, typ.Field(i).Name, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestSpecFingerprintConcurrent resolves every preset and experiment sweep
// point from 8 goroutines at once, starting from an empty cache, and checks
// every answer against a sequential fresh resolution. Run it under -race.
func TestSpecFingerprintConcurrent(t *testing.T) {
	cfgs := []Config{{}} // the zero Mode shares baseline's cache entry
	for _, name := range spec.Presets() {
		cfgs = append(cfgs, Config{Mode: Mode(name)})
	}
	for _, fc := range Fig10Configs() {
		cfgs = append(cfgs, fc.Cfg(Config{Mode: fc.Mode}))
	}
	cfgs = append(cfgs, Config{Mode: ModeTEA, Set: []string{"companion.tea.disable_early_flush=true"}})
	for _, p := range []SensParam{SensBlockCache, SensFillBuffer, SensH2PDecay, SensLead, SensFetchQueue} {
		for _, v := range SensDefaults(p) {
			patch, err := p.Patch(v)
			if err != nil {
				t.Fatal(err)
			}
			edited, err := spec.Preset("tea")
			if err != nil {
				t.Fatal(err)
			}
			if err := edited.Set(patch); err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, Config{Spec: &edited}, Config{Mode: ModeTEA, Set: []string{patch}})
		}
	}
	want := make([]uint64, len(cfgs))
	for i, c := range cfgs {
		fp, err := freshFingerprint(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fp
	}

	presetPoints.mu.Lock()
	clear(presetPoints.m)
	presetPoints.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cfgs {
				i := (k + g) % len(cfgs) // stagger the goroutines across points
				if got, err := cfgs[i].SpecFingerprint(); err != nil || got != want[i] {
					t.Errorf("config %d: SpecFingerprint = %016x (err %v), want %016x", i, got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
