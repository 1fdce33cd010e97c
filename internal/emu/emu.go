// Package emu implements the functional golden-model emulator for the µISA.
//
// The emulator serves three roles in the reproduction:
//  1. validating that workloads compute correct results (kernels are checked
//     against native Go implementations),
//  2. fast-forwarding through warm-up regions, and
//  3. co-simulation: the timing pipeline retires instructions against the
//     emulator and asserts the architectural effects match.
package emu

import (
	"fmt"
	"math"

	"teasim/internal/isa"
	"teasim/internal/mem"
)

// Step describes the architectural effect of one executed instruction. The
// pipeline compares retired instructions against this record.
type Step struct {
	PC     uint64
	NextPC uint64
	Inst   *isa.Inst

	// WroteReg and RegVal describe the register write, if any.
	WroteReg bool
	Rd       isa.Reg
	RegVal   uint64

	// Mem describes a memory access, if any.
	IsLoad  bool
	IsStore bool
	MemAddr uint64
	MemSize int
	MemVal  uint64 // value loaded or stored

	// Branch outcome for control-flow instructions.
	IsBranch bool
	Taken    bool
	Target   uint64 // NextPC when taken (== NextPC for unconditional)

	Halted bool
}

// Machine is a functional µISA machine.
type Machine struct {
	Prog   *isa.Program
	Mem    *mem.Image
	Regs   [isa.NumRegs]uint64
	PC     uint64
	Halted bool
	// Count is the number of instructions executed so far.
	Count uint64
}

// New creates a machine with the program loaded, memory initialized from the
// program's data segments, and PC at the entry point.
func New(p *isa.Program) *Machine {
	return &Machine{Prog: p, Mem: mem.LoadImage(p.Data), PC: p.Entry}
}

// NewWithMem creates a machine over an existing memory image (no data
// segments are re-applied). Used to co-simulate against a shared setup.
func NewWithMem(p *isa.Program, image *mem.Image) *Machine {
	return &Machine{Prog: p, Mem: image, PC: p.Entry}
}

func f64(v uint64) float64 { return math.Float64frombits(v) }
func b64(f float64) uint64 { return math.Float64bits(f) }

// Step executes one instruction and returns its architectural effect.
// Calling Step on a halted machine returns a Halted step without advancing.
func (m *Machine) Step() (Step, error) {
	var s Step
	if m.Halted {
		s.Halted = true
		s.PC = m.PC
		return s, nil
	}
	in := m.Prog.InstAt(m.PC)
	if in == nil {
		return s, fmt.Errorf("emu: PC 0x%x outside code segment", m.PC)
	}
	s.PC = m.PC
	s.Inst = in
	next := m.PC + isa.InstBytes

	rs1 := m.Regs[in.Rs1]
	rs2 := m.Regs[in.Rs2]
	setRd := func(v uint64) {
		s.WroteReg = true
		s.Rd = in.Rd
		s.RegVal = v
		if in.Rd != isa.R0 {
			m.Regs[in.Rd] = v
		} else {
			s.RegVal = 0
		}
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		m.Halted = true
		s.Halted = true
	case isa.OpAdd:
		setRd(rs1 + rs2)
	case isa.OpSub:
		setRd(rs1 - rs2)
	case isa.OpAnd:
		setRd(rs1 & rs2)
	case isa.OpOr:
		setRd(rs1 | rs2)
	case isa.OpXor:
		setRd(rs1 ^ rs2)
	case isa.OpShl:
		setRd(rs1 << (rs2 & 63))
	case isa.OpShr:
		setRd(rs1 >> (rs2 & 63))
	case isa.OpSar:
		setRd(uint64(int64(rs1) >> (rs2 & 63)))
	case isa.OpMul:
		setRd(rs1 * rs2)
	case isa.OpDiv:
		if rs2 == 0 {
			setRd(0)
		} else {
			setRd(uint64(int64(rs1) / int64(rs2)))
		}
	case isa.OpRem:
		if rs2 == 0 {
			setRd(rs1)
		} else {
			setRd(uint64(int64(rs1) % int64(rs2)))
		}
	case isa.OpSlt:
		setRd(boolToU64(int64(rs1) < int64(rs2)))
	case isa.OpSltu:
		setRd(boolToU64(rs1 < rs2))
	case isa.OpMin:
		if int64(rs1) < int64(rs2) {
			setRd(rs1)
		} else {
			setRd(rs2)
		}
	case isa.OpMax:
		if int64(rs1) > int64(rs2) {
			setRd(rs1)
		} else {
			setRd(rs2)
		}

	case isa.OpAddI:
		setRd(rs1 + uint64(in.Imm))
	case isa.OpAndI:
		setRd(rs1 & uint64(in.Imm))
	case isa.OpOrI:
		setRd(rs1 | uint64(in.Imm))
	case isa.OpXorI:
		setRd(rs1 ^ uint64(in.Imm))
	case isa.OpShlI:
		setRd(rs1 << (uint64(in.Imm) & 63))
	case isa.OpShrI:
		setRd(rs1 >> (uint64(in.Imm) & 63))
	case isa.OpMulI:
		setRd(rs1 * uint64(in.Imm))
	case isa.OpSltI:
		setRd(boolToU64(int64(rs1) < in.Imm))
	case isa.OpSltuI:
		setRd(boolToU64(rs1 < uint64(in.Imm)))
	case isa.OpLi:
		setRd(uint64(in.Imm))

	case isa.OpFAdd:
		setRd(b64(f64(rs1) + f64(rs2)))
	case isa.OpFSub:
		setRd(b64(f64(rs1) - f64(rs2)))
	case isa.OpFMul:
		setRd(b64(f64(rs1) * f64(rs2)))
	case isa.OpFDiv:
		setRd(b64(f64(rs1) / f64(rs2)))
	case isa.OpFLt:
		setRd(boolToU64(f64(rs1) < f64(rs2)))
	case isa.OpFCvt:
		setRd(b64(float64(int64(rs1))))
	case isa.OpFInt:
		setRd(uint64(int64(f64(rs1))))

	case isa.OpLd, isa.OpLd4, isa.OpLd1:
		addr := rs1 + uint64(in.Imm)
		sz := in.MemBytes()
		v := m.Mem.Read(addr, sz)
		s.IsLoad, s.MemAddr, s.MemSize, s.MemVal = true, addr, sz, v
		setRd(v)
	case isa.OpSt, isa.OpSt4, isa.OpSt1:
		addr := rs1 + uint64(in.Imm)
		sz := in.MemBytes()
		// Self-modifying code is unsupported: the pipeline's decoded-block
		// cache is built once per program (see emu.Predecode), so a store
		// into the code segment is a hard error here too, keeping the golden
		// model's contract aligned with the pipeline's.
		if addr < m.Prog.CodeEnd() && addr+uint64(sz) > m.Prog.CodeBase {
			return s, fmt.Errorf("emu: self-modifying store at PC 0x%x into code segment [0x%x,0x%x)",
				m.PC, m.Prog.CodeBase, m.Prog.CodeEnd())
		}
		m.Mem.Write(addr, rs2, sz)
		s.IsStore, s.MemAddr, s.MemSize, s.MemVal = true, addr, sz, rs2

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		s.IsBranch = true
		s.Taken = condTaken(in.Op, rs1, rs2)
		s.Target = uint64(in.Imm)
		if s.Taken {
			next = s.Target
		}
	case isa.OpJmp:
		s.IsBranch, s.Taken, s.Target = true, true, uint64(in.Imm)
		next = s.Target
	case isa.OpCall:
		s.IsBranch, s.Taken, s.Target = true, true, uint64(in.Imm)
		setRd(m.PC + isa.InstBytes)
		next = s.Target
	case isa.OpRet:
		s.IsBranch, s.Taken, s.Target = true, true, rs1
		next = rs1
	case isa.OpJr:
		s.IsBranch, s.Taken, s.Target = true, true, rs1+uint64(in.Imm)
		next = s.Target
	case isa.OpCallR:
		s.IsBranch, s.Taken, s.Target = true, true, rs1
		setRd(m.PC + isa.InstBytes)
		next = s.Target

	default:
		return s, fmt.Errorf("emu: unimplemented opcode %v at 0x%x", in.Op, m.PC)
	}

	if !m.Halted {
		m.PC = next
	}
	s.NextPC = next
	m.Count++
	return s, nil
}

// condTaken evaluates a conditional-branch condition.
func condTaken(op isa.Op, rs1, rs2 uint64) bool {
	switch op {
	case isa.OpBeq:
		return rs1 == rs2
	case isa.OpBne:
		return rs1 != rs2
	case isa.OpBlt:
		return int64(rs1) < int64(rs2)
	case isa.OpBge:
		return int64(rs1) >= int64(rs2)
	case isa.OpBltu:
		return rs1 < rs2
	case isa.OpBgeu:
		return rs1 >= rs2
	}
	panic("emu: condTaken on non-branch")
}

// CondTaken exposes branch-condition evaluation for the pipeline's execute
// stage so both models share one definition.
func CondTaken(op isa.Op, rs1, rs2 uint64) bool { return condTaken(op, rs1, rs2) }

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run executes up to limit instructions (0 = unlimited) or until halt.
// It returns the number of instructions executed.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for !m.Halted && (limit == 0 || n < limit) {
		if _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
