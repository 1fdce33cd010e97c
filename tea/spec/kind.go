package spec

import (
	"fmt"
	"slices"
	"strings"
)

// KindInfo describes one registered companion kind: how its parameter
// section hangs off Companion, how to install a default section when a
// companion.kind patch selects it, and how to validate the populated
// section. Validate and Set drive off this registry, so adding a companion
// kind is one RegisterKind call plus a section struct — no switch edits.
type KindInfo struct {
	// Kind is the registry key (the value of companion.kind).
	Kind CompanionKind
	// Summary is a one-line description for docs and tooling.
	Summary string
	// Engine marks kinds whose companion shares (or partitions) the main
	// core's engine, making the dedicated/ports/no_priority shape fields
	// meaningful. Only TEA does; every other kind must leave them unset.
	Engine bool
	// Hint names the default-section constructor in error messages
	// (e.g. "see spec.DefaultTEA for Table II").
	Hint string
	// Has reports whether the kind's parameter section is populated.
	// nil for sectionless kinds (none).
	Has func(c *Companion) bool
	// Install populates the kind's default section (companion.kind patches
	// call it when Has is false); Clear removes the section (switching to a
	// different kind).
	Install func(c *Companion)
	// Clear removes the kind's section from c.
	Clear func(c *Companion)
	// CloneInto deep-copies the kind's section from src into dst
	// (MachineSpec.Clone).
	CloneInto func(dst, src *Companion)
	// Validate checks the populated section; only called when Has reports
	// true. It receives the whole spec for cross-section rules.
	Validate func(s *MachineSpec, bad func(string, ...any))
}

// kindRegistry holds every registered companion kind; kindOrder lists the
// kinds sorted by name, the order Kinds returns and Validate walks.
var (
	kindRegistry = map[CompanionKind]KindInfo{}
	kindOrder    []CompanionKind
)

// RegisterKind adds a companion kind to the registry. It panics on a
// duplicate kind: two packages claiming one kind is a wiring bug.
func RegisterKind(info KindInfo) {
	if info.Kind == "" {
		panic("spec: RegisterKind requires a kind name")
	}
	if _, dup := kindRegistry[info.Kind]; dup {
		panic(fmt.Sprintf("spec: companion kind %q registered twice", info.Kind))
	}
	kindRegistry[info.Kind] = info
	kindOrder = append(kindOrder, info.Kind)
	slices.Sort(kindOrder)
}

// Kinds returns the registered companion kinds, sorted by name.
func Kinds() []CompanionKind {
	return slices.Clone(kindOrder)
}

// LookupKind returns the registered info for a kind.
func LookupKind(k CompanionKind) (KindInfo, bool) {
	info, ok := kindRegistry[k]
	return info, ok
}

// kindList renders the registered kind names for unknown-kind errors.
func kindList() string {
	names := make([]string, 0, len(kindOrder))
	for _, k := range kindOrder {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

func init() {
	RegisterKind(KindInfo{
		Kind:    CompanionNone,
		Summary: "bare out-of-order core, no precomputation companion",
	})
	RegisterKind(KindInfo{
		Kind:    CompanionTEA,
		Summary: "the paper's TEA thread (block-level precompute, early flush)",
		Engine:  true,
		Hint:    "see spec.DefaultTEA for Table II",
		Has:     func(c *Companion) bool { return c.TEA != nil },
		Install: func(c *Companion) { c.TEA = DefaultTEA() },
		Clear:   func(c *Companion) { c.TEA = nil },
		CloneInto: func(dst, src *Companion) {
			if src.TEA != nil {
				t := *src.TEA
				dst.TEA = &t
			}
		},
		Validate: func(s *MachineSpec, bad func(string, ...any)) {
			t := s.Companion.TEA
			validateTEA(t, bad)
			if t.RSPartition > 0 && t.RSPartition >= s.Backend.RSSize {
				bad("companion.tea.rs_partition (%d) must leave the main thread reservation stations (backend.rs_size %d)",
					t.RSPartition, s.Backend.RSSize)
			}
			// On-core TEA carves its registers out of the main thread's
			// share; a dedicated engine brings its own.
			if !s.Companion.Dedicated && t.PRPartition > 0 && s.Backend.NumPRegs-t.PRPartition <= archRegs {
				bad("companion.tea.pr_partition (%d) must leave the main thread more than %d physical registers (backend.num_pregs %d) unless companion.dedicated is set",
					t.PRPartition, archRegs, s.Backend.NumPRegs)
			}
		},
	})
	RegisterKind(KindInfo{
		Kind:    CompanionRunahead,
		Summary: "Branch Runahead comparison engine (dependence-chain runahead)",
		Hint:    "see spec.DefaultRunahead",
		Has:     func(c *Companion) bool { return c.Runahead != nil },
		Install: func(c *Companion) { c.Runahead = DefaultRunahead() },
		Clear:   func(c *Companion) { c.Runahead = nil },
		CloneInto: func(dst, src *Companion) {
			if src.Runahead != nil {
				r := *src.Runahead
				dst.Runahead = &r
			}
		},
		Validate: func(s *MachineSpec, bad func(string, ...any)) {
			validateRunahead(s.Companion.Runahead, bad)
		},
	})
}
