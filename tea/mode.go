package tea

import (
	"encoding/json"
	"fmt"
	"strconv"

	"teasim/tea/spec"
)

// Mode selects the precomputation scheme attached to the baseline core. Each
// mode is a name for a registered machine preset (see tea/spec): Preset
// returns the mode's full MachineSpec, and Config.Spec can replace the mode
// entirely with a custom machine point.
type Mode int

// Modes.
const (
	// ModeBaseline runs the Table I out-of-order core with no
	// precomputation.
	ModeBaseline Mode = iota
	// ModeTEA attaches the paper's TEA thread using on-core resources
	// (the headline configuration, Fig. 5).
	ModeTEA
	// ModeTEADedicated runs the TEA thread on a dedicated execution engine
	// with 16 execution units (§V-D, Fig. 9).
	ModeTEADedicated
	// ModeBranchRunahead attaches the prior-work Branch Runahead engine
	// (§V-C, Fig. 8).
	ModeBranchRunahead
	// ModeTEABigEngine gives the TEA thread a dedicated engine as large as
	// the main core's backend (§V-D: "a much larger execution engine...
	// provided very little additional benefit (12.8%)").
	ModeTEABigEngine
	// ModeWide16 runs a TEA-less 16-wide frontend baseline (§IV-H: a true
	// 16-wide core costs ~10% area for only 2.8% performance, because
	// predictor bandwidth, not fetch width, is the limiter).
	ModeWide16
)

// modeNames is the single registry mapping modes to their report (and
// preset) names. String, ParseMode, Modes, Preset, and the JSON codecs all
// derive from it; adding a mode means adding one entry here and one preset
// registration in tea/spec.
var modeNames = [...]string{
	ModeBaseline:       "baseline",
	ModeTEA:            "tea",
	ModeTEADedicated:   "tea-dedicated",
	ModeBranchRunahead: "runahead",
	ModeTEABigEngine:   "tea-bigengine",
	ModeWide16:         "wide16",
}

// Modes returns every mode in declaration order.
func Modes() []Mode {
	ms := make([]Mode, len(modeNames))
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

// String returns the mode name used in reports (also its preset name).
func (m Mode) String() string {
	if int(m) >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Preset returns the mode's machine point as a spec.
func (m Mode) Preset() (spec.MachineSpec, error) {
	return spec.Preset(m.String())
}

// MarshalJSON renders the mode as its report name.
func (m Mode) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, m.String()), nil
}

// UnmarshalJSON parses a report name back into a mode.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	mode, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ParseMode parses a mode report name (the Mode.String form).
func ParseMode(s string) (Mode, error) {
	for i, name := range modeNames {
		if name == s {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("tea: unknown mode %q", s)
}
