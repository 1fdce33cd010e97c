package emu

import "teasim/internal/isa"

// Predecode builds the decoded-block cache for a program: the per-instruction
// decode/crack work the frontend used to redo on every fetch (class
// resolution, destination-validity, branch boundaries) is computed once here
// and replayed by PC index thereafter. The cache is valid only while the code
// segment is immutable; the pipeline asserts the absence of self-modifying
// stores at retire (and the golden model asserts it at Step), so no
// invalidation path is needed for the supported workloads.

// UopTmpl is the immutable per-instruction decode template.
type UopTmpl struct {
	In        *isa.Inst
	Cls       isa.Class
	DestValid bool // HasDest() && Rd != R0, as cached by fetch
	IsBr      bool
	IsCond    bool
	IsHalt    bool
	MemBytes  uint8
}

// Decoded is a program plus its predecoded template array and the
// branch-boundary index used by the decoupled predictor to skip straight-line
// runs without touching individual instructions.
type Decoded struct {
	Prog *isa.Program
	Tmpl []UopTmpl
	// NextBr[i] is the index of the first instruction at or after i that is
	// a branch or a halt (the only instructions where the predict stream can
	// deviate from pc += InstBytes); len(Tmpl) if there is none.
	NextBr []int32
}

// Predecode decodes every instruction of p once. The table is a value, so
// a holder can keep it inline and pay only for its two arrays.
func Predecode(p *isa.Program) Decoded {
	n := len(p.Code)
	d := Decoded{
		Prog:   p,
		Tmpl:   make([]UopTmpl, n),
		NextBr: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		in := &p.Code[i]
		d.Tmpl[i] = UopTmpl{
			In:        in,
			Cls:       in.Class(),
			DestValid: in.HasDest() && in.Rd != isa.R0,
			IsBr:      in.IsBranch(),
			IsCond:    in.IsCondBranch(),
			IsHalt:    in.Op == isa.OpHalt,
			MemBytes:  uint8(in.MemBytes()),
		}
	}
	next := int32(n)
	for i := n - 1; i >= 0; i-- {
		if d.Tmpl[i].IsBr || d.Tmpl[i].IsHalt {
			next = int32(i)
		}
		d.NextBr[i] = next
	}
	return d
}

// Index maps a PC to its instruction index, mirroring Program.InstAt's
// bounds and alignment checks (false = off the code segment / misaligned).
func (d *Decoded) Index(pc uint64) (int, bool) {
	if pc < d.Prog.CodeBase || (pc-d.Prog.CodeBase)%isa.InstBytes != 0 {
		return 0, false
	}
	idx := (pc - d.Prog.CodeBase) / isa.InstBytes
	if idx >= uint64(len(d.Tmpl)) {
		return 0, false
	}
	return int(idx), true
}
