package tea

// Mode names a registered machine preset (spec.Presets): the machine a
// Config simulates when it has no Spec, and the label its Result carries.
// spec.Preset, through Config.ResolvedSpec, is the one place an unknown name
// is rejected. The zero Mode is "baseline".
type Mode string

// The paper's machine points. Every other registered preset (the companion
// zoo's "bullseye", "ldbp" and "twowin") is a Mode by its name too.
const (
	// ModeBaseline runs the Table I out-of-order core with no
	// precomputation.
	ModeBaseline Mode = "baseline"
	// ModeTEA attaches the paper's TEA thread using on-core resources
	// (the headline configuration, Fig. 5).
	ModeTEA Mode = "tea"
	// ModeTEADedicated runs the TEA thread on a dedicated execution engine
	// with 16 execution units (§V-D, Fig. 9).
	ModeTEADedicated Mode = "tea-dedicated"
	// ModeBranchRunahead attaches the prior-work Branch Runahead engine
	// (§V-C, Fig. 8).
	ModeBranchRunahead Mode = "runahead"
	// ModeTEABigEngine gives the TEA thread a dedicated engine as large as
	// the main core's backend (§V-D: "a much larger execution engine...
	// provided very little additional benefit (12.8%)").
	ModeTEABigEngine Mode = "tea-bigengine"
	// ModeWide16 runs a TEA-less 16-wide frontend baseline (§IV-H: a true
	// 16-wide core costs ~10% area for only 2.8% performance, because
	// predictor bandwidth, not fetch width, is the limiter).
	ModeWide16 Mode = "wide16"
)

// String returns the preset name; the zero Mode is "baseline".
func (m Mode) String() string { return string(m.orBaseline()) }

// MarshalText encodes the Mode as its String form, so a zero Mode reads
// "baseline" in JSON too. Decoding needs no method: a name decodes as
// itself, and spec.Preset judges it when the config resolves.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// orBaseline returns m with the zero Mode spelled out, the form every key
// and label carries.
func (m Mode) orBaseline() Mode {
	if m == "" {
		return ModeBaseline
	}
	return m
}
