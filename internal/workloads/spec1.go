package workloads

import (
	"slices"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

// SPEC-CPU2017-like kernels, part 1: perlbench, gcc, mcf, omnetpp,
// xalancbmk. Each reproduces the control-flow/data pattern that makes the
// original benchmark's branches hard to predict (complex control flow per
// the paper's §V-C classification).

// specIters maps scale to the main iteration count of a SPEC-like kernel.
func specIters(scale int, base int) int {
	if scale <= 0 {
		if v := base / 20; v >= 1 {
			return v
		}
		return 1
	}
	return base * scale
}

// emitXorshift advances the xorshift state in reg (clobbers tmp), exactly
// mirroring rng.next.
func emitXorshift(b *asm.Builder, reg, tmp isa.Reg) {
	b.ShlI(tmp, reg, 13)
	b.Xor(reg, reg, tmp)
	b.ShrI(tmp, reg, 7)
	b.Xor(reg, reg, tmp)
	b.ShlI(tmp, reg, 17)
	b.Xor(reg, reg, tmp)
}

// --- perlbench ---

// Perlbench is a string-matching kernel: pattern scans over skewed-alphabet
// text with byte-compare inner loops (the H2P mismatch ladder) plus a
// character-class histogram.
func Perlbench() Workload {
	const textLen = 1 << 16
	patterns := [][]byte{
		[]byte("aba"), []byte("cadb"), []byte("abcab"), []byte("dd"),
	}
	genText := func() []byte {
		r := newRng(0x9E51)
		text := make([]byte, textLen)
		for i := range text {
			// Skewed alphabet a..e (a most common).
			v := r.intn(10)
			switch {
			case v < 4:
				text[i] = 'a'
			case v < 7:
				text[i] = 'b'
			case v < 9:
				text[i] = 'c'
			default:
				text[i] = 'd' + byte(r.intn(2))
			}
		}
		return text
	}
	build := func(scale int) *isa.Program {
		iters := specIters(scale, 4)
		text := genText()
		b := asm.NewBuilder()
		l := newLayout()
		textA := l.alloc(textLen)
		b.Data(textA, text)
		var patA [4]uint64
		var patL [4]int
		for i, p := range patterns {
			patA[i] = l.alloc(len(p) + 1)
			patL[i] = len(p)
			b.Data(patA[i], p)
		}

		b.Label("main")
		b.Li(isa.R20, 0) // matches
		b.Li(isa.R21, 0) // class histogram ('a' count)
		b.Li(isa.R22, 0) // rep counter
		b.Label("rep")
		for pi := 0; pi < 4; pi++ {
			lbl := func(s string) string { return s + string(rune('0'+pi)) }
			b.LiU(isa.R1, textA)
			b.LiU(isa.R2, patA[pi])
			b.Li(isa.R3, 0)                       // pos
			b.Li(isa.R4, int64(textLen-patL[pi])) // limit
			b.Li(isa.R5, int64(patL[pi]))
			b.Label(lbl("scan"))
			b.Li(isa.R6, 0) // k
			b.Label(lbl("cmp"))
			b.Add(isa.R10, isa.R1, isa.R3)
			b.Add(isa.R10, isa.R10, isa.R6)
			b.Ld1(isa.R11, isa.R10, 0)
			b.Add(isa.R10, isa.R2, isa.R6)
			b.Ld1(isa.R12, isa.R10, 0)
			b.Bne(isa.R11, isa.R12, lbl("miss")) // H2P mismatch ladder
			b.AddI(isa.R6, isa.R6, 1)
			b.Blt(isa.R6, isa.R5, lbl("cmp"))
			b.AddI(isa.R20, isa.R20, 1)
			b.Label(lbl("miss"))
			// character-class branch on first byte
			b.Li(isa.R13, 'a')
			b.Bne(isa.R11, isa.R13, lbl("notA"))
			b.AddI(isa.R21, isa.R21, 1)
			b.Label(lbl("notA"))
			b.AddI(isa.R3, isa.R3, 1)
			b.Blt(isa.R3, isa.R4, lbl("scan"))
		}
		b.AddI(isa.R22, isa.R22, 1)
		b.Li(isa.R23, int64(iters))
		b.Blt(isa.R22, isa.R23, "rep")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		iters := specIters(scale, 4)
		text := genText()
		var matches, classA uint64
		for rep := 0; rep < iters; rep++ {
			for _, p := range patterns {
				for pos := 0; pos < textLen-len(p); pos++ {
					k := 0
					var last byte
					for k < len(p) {
						last = text[pos+k]
						if last != p[k] {
							break
						}
						k++
					}
					if k == len(p) {
						matches++
						last = p[len(p)-1] // loop exited with k==len; last read was equal
						last = text[pos+len(p)-1]
					}
					// The asm checks r11 (last text byte read) against 'a'.
					if last == 'a' {
						classA++
					}
					_ = last
				}
			}
		}
		return []uint64{matches, classA}
	}
	return Workload{Name: "perlbench", Flow: Complex, Build: build, Expected: expected}
}

// --- gcc ---

// GCC is a bytecode-interpreter kernel: an indirect jump table dispatching
// eight handlers over a random opcode stream (indirect H2P branches plus
// data-dependent handler conditionals).
func GCC() Workload {
	const codeLen = 1 << 12
	genCode := func() []uint64 {
		// Real interpreter traces repeat short opcode motifs ("basic
		// blocks" of the interpreted program) with occasional noise; the
		// motif structure is what history-based indirect predictors learn.
		r := newRng(0x6CC)
		motifs := make([][]uint64, 24)
		for m := range motifs {
			motif := make([]uint64, 3+r.intn(6))
			for i := range motif {
				var op uint64
				switch v := r.intn(16); {
				case v < 6:
					op = 0
				case v < 9:
					op = 5
				case v < 11:
					op = 3
				case v < 12:
					op = 1
				case v < 13:
					op = 4
				case v < 14:
					op = 6
				case v < 15:
					op = 2
				default:
					op = 7
				}
				motif[i] = op<<8 | uint64(r.intn(256))
			}
			motifs[m] = motif
		}
		code := make([]uint64, 0, codeLen)
		for len(code) < codeLen {
			code = append(code, motifs[r.intn(len(motifs))]...)
		}
		return code[:codeLen]
	}
	build := func(scale int) *isa.Program {
		iters := specIters(scale, 40)
		code := genCode()
		b := asm.NewBuilder()
		l := newLayout()
		codeA := l.words(codeLen)
		b.DataU64(codeA, code)
		cells := l.words(256)

		b.Label("main")
		b.LiU(isa.R1, codeA)
		b.LiU(isa.R2, cells)
		b.Li(isa.R20, 0) // acc
		b.Li(isa.R21, 0) // taken-handler counter
		b.Li(isa.R22, 0) // outer reps
		// jump table in r14..: store handler addresses in memory
		table := l.words(8)
		for i := 0; i < 8; i++ {
			b.LiLabel(isa.R10, "h"+string(rune('0'+i)))
			b.LiU(isa.R11, table+uint64(i)*8)
			b.St(isa.R11, 0, isa.R10)
		}
		b.LiU(isa.R3, table)
		b.Label("rep")
		b.Li(isa.R4, 0) // vpc
		b.Li(isa.R5, int64(codeLen))
		b.Label("dispatch")
		idx(b, isa.R10, isa.R1, isa.R4)
		b.Ld(isa.R6, isa.R10, 0)    // packed op
		b.ShrI(isa.R7, isa.R6, 8)   // opcode
		b.AndI(isa.R8, isa.R6, 255) // operand
		idx(b, isa.R10, isa.R3, isa.R7)
		b.Ld(isa.R10, isa.R10, 0)
		b.Jr(isa.R10, 0) // indirect dispatch (H2P target)

		b.Label("h0") // acc += operand
		b.Add(isa.R20, isa.R20, isa.R8)
		b.Jmp("next")
		b.Label("h1") // acc ^= operand
		b.Xor(isa.R20, isa.R20, isa.R8)
		b.Jmp("next")
		b.Label("h2") // store cell
		b.AndI(isa.R9, isa.R20, 255)
		idx(b, isa.R10, isa.R2, isa.R9)
		b.St(isa.R10, 0, isa.R8)
		b.Jmp("next")
		b.Label("h3") // load cell into acc
		idx(b, isa.R10, isa.R2, isa.R8)
		b.Ld(isa.R9, isa.R10, 0)
		b.Add(isa.R20, isa.R20, isa.R9)
		b.Jmp("next")
		b.Label("h4") // conditional on acc parity (H2P)
		b.AndI(isa.R9, isa.R20, 1)
		b.Beqz(isa.R9, "next")
		b.AddI(isa.R21, isa.R21, 1)
		b.MulI(isa.R20, isa.R20, 3)
		b.Jmp("next")
		b.Label("h5") // shift mix
		b.ShrI(isa.R9, isa.R20, 3)
		b.Xor(isa.R20, isa.R20, isa.R9)
		b.Jmp("next")
		b.Label("h6") // conditional skip of next vpc (control-flow wobble)
		b.AndI(isa.R9, isa.R20, 7)
		b.Bne(isa.R9, isa.R8, "next")
		b.AddI(isa.R4, isa.R4, 1)
		b.Jmp("next")
		b.Label("h7") // subtract
		b.Sub(isa.R20, isa.R20, isa.R8)
		b.Jmp("next")

		b.Label("next")
		// Shared post-processing (interpreter bookkeeping: flags, profiling
		// counters, operand stack maintenance) — dilutes dispatch density to
		// a realistic instructions-per-opcode ratio.
		b.ShrI(isa.R9, isa.R20, 7)
		b.Xor(isa.R9, isa.R9, isa.R20)
		b.MulI(isa.R9, isa.R9, 0x2545F491)
		b.ShrI(isa.R11, isa.R9, 11)
		b.Xor(isa.R9, isa.R9, isa.R11)
		b.AndI(isa.R11, isa.R9, 255)
		idx(b, isa.R10, isa.R2, isa.R11)
		b.Ld(isa.R12, isa.R10, 0)
		b.Add(isa.R12, isa.R12, isa.R9)
		b.St(isa.R10, 0, isa.R12)
		b.AndI(isa.R13, isa.R4, 15)
		b.Add(isa.R20, isa.R20, isa.R13)
		b.AddI(isa.R4, isa.R4, 1)
		b.Blt(isa.R4, isa.R5, "dispatch")
		b.AddI(isa.R22, isa.R22, 1)
		b.Li(isa.R23, int64(iters))
		b.Blt(isa.R22, isa.R23, "rep")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		iters := specIters(scale, 40)
		code := genCode()
		cells := make([]uint64, 256)
		var acc, takenCnt uint64
		for rep := 0; rep < iters; rep++ {
			for vpc := 0; vpc < codeLen; vpc++ {
				op := code[vpc] >> 8
				operand := code[vpc] & 255
				switch op {
				case 0:
					acc += operand
				case 1:
					acc ^= operand
				case 2:
					cells[acc&255] = operand
				case 3:
					acc += cells[operand]
				case 4:
					if acc&1 == 1 {
						takenCnt++
						acc *= 3
					}
				case 5:
					acc ^= acc >> 3
				case 6:
					if acc&7 == operand {
						vpc++
					}
				case 7:
					acc -= operand
				}
				h := (acc >> 7) ^ acc
				h *= 0x2545F491
				h ^= h >> 11
				cells[h&255] += h
				acc += uint64(vpc) & 15
			}
		}
		return []uint64{acc, takenCnt}
	}
	return Workload{Name: "gcc", Flow: Complex, Build: build, Expected: expected}
}

// --- mcf ---

// MCF is a network-simplex-flavoured arc-scanning kernel: per-arc reduced
// costs select among several control-flow paths that converge on shared H2P
// branches (the paper's Fig. 3 pattern), with potential updates creating
// cross-iteration dependences.
func MCF() Workload {
	const nNodes = 4096
	const nArcs = 1 << 15
	type arcs struct{ tail, head, cost []uint64 }
	genArcs := func() arcs {
		r := newRng(0x3CF)
		a := arcs{
			tail: make([]uint64, nArcs),
			head: make([]uint64, nArcs),
			cost: make([]uint64, nArcs),
		}
		for i := 0; i < nArcs; i++ {
			a.tail[i] = uint64(r.intn(nNodes))
			a.head[i] = uint64(r.intn(nNodes))
			a.cost[i] = uint64(r.intn(200))
		}
		return a
	}
	build := func(scale int) *isa.Program {
		passes := specIters(scale, 20)
		a := genArcs()
		b := asm.NewBuilder()
		l := newLayout()
		tailA := l.words(nArcs)
		headA := l.words(nArcs)
		costA := l.words(nArcs)
		flowA := l.words(nArcs)
		potA := l.words(nNodes)
		b.DataU64(tailA, a.tail)
		b.DataU64(headA, a.head)
		b.DataU64(costA, a.cost)

		b.Label("main")
		b.LiU(isa.R1, tailA)
		b.LiU(isa.R2, headA)
		b.LiU(isa.R3, costA)
		b.LiU(isa.R4, flowA)
		b.LiU(isa.R5, potA)
		b.Li(isa.R20, 0) // pushes
		b.Li(isa.R21, 0) // blocked
		b.Li(isa.R22, 0) // pass
		b.Label("pass")
		b.Li(isa.R8, 0) // arc index
		b.Li(isa.R9, nArcs)
		b.Label("arc")
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R11, isa.R10, 0) // tail
		idx(b, isa.R10, isa.R2, isa.R8)
		b.Ld(isa.R12, isa.R10, 0) // head
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R13, isa.R10, 0) // cost
		idx(b, isa.R14, isa.R4, isa.R8)
		b.Ld(isa.R15, isa.R14, 0) // flow
		idx(b, isa.R16, isa.R5, isa.R11)
		b.Ld(isa.R17, isa.R16, 0) // pot[tail]
		idx(b, isa.R18, isa.R5, isa.R12)
		b.Ld(isa.R19, isa.R18, 0) // pot[head]
		// red = cost + pot[tail] - pot[head] (signed arithmetic)
		b.Add(isa.R13, isa.R13, isa.R17)
		b.Sub(isa.R13, isa.R13, isa.R19)
		// Path selection.
		b.SltI(isa.R23, isa.R15, 4)
		b.Beqz(isa.R23, "saturated") // flow >= 4
		b.SltI(isa.R23, isa.R13, 50)
		b.Beqz(isa.R23, "expensive") // red >= 50
		// cheap arc: push flow
		b.AddI(isa.R15, isa.R15, 1)
		b.St(isa.R14, 0, isa.R15)
		b.AddI(isa.R20, isa.R20, 1)
		b.AddI(isa.R19, isa.R19, 1) // pot[head]++
		b.St(isa.R18, 0, isa.R19)
		b.Jmp("merge")
		b.Label("saturated")
		b.AddI(isa.R21, isa.R21, 1)
		b.SltI(isa.R23, isa.R13, 0)
		b.Beqz(isa.R23, "merge")
		b.St(isa.R14, 0, isa.R0) // reset flow on negative reduced cost
		b.Jmp("merge")
		b.Label("expensive")
		b.AddI(isa.R17, isa.R17, 1) // pot[tail]++
		b.St(isa.R16, 0, isa.R17)
		// All paths converge on a shared data-dependent H2P branch (Fig. 3).
		b.Label("merge")
		b.Ld(isa.R17, isa.R16, 0) // reload pot[tail]
		b.AndI(isa.R23, isa.R17, 7)
		b.AndI(isa.R24, isa.R13, 7)
		b.Bne(isa.R23, isa.R24, "arcnext") // H2P with multiple inbound paths
		b.AddI(isa.R20, isa.R20, 1)
		b.Label("arcnext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "arc")
		b.AddI(isa.R22, isa.R22, 1)
		b.Li(isa.R23, int64(passes))
		b.Blt(isa.R22, isa.R23, "pass")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		passes := specIters(scale, 20)
		a := genArcs()
		flow := make([]uint64, nArcs)
		pot := make([]uint64, nNodes)
		var pushes, blocked uint64
		for p := 0; p < passes; p++ {
			for i := 0; i < nArcs; i++ {
				tail, head := a.tail[i], a.head[i]
				red := a.cost[i] + pot[tail] - pot[head]
				if int64(flow[i]) >= 4 {
					blocked++
					if int64(red) < 0 {
						flow[i] = 0
					}
				} else if int64(red) < 50 {
					flow[i]++
					pushes++
					pot[head]++
				} else {
					pot[tail]++
				}
				if pot[tail]&7 == red&7 {
					pushes++
				}
			}
		}
		return []uint64{pushes, blocked}
	}
	return Workload{Name: "mcf", Flow: Complex, Build: build, Expected: expected}
}

// --- omnetpp ---

// Omnetpp is a discrete-event-simulation kernel: a binary min-heap of
// timestamped events whose sift comparisons are data-dependent H2P
// branches, with event handlers scheduling future events.
func Omnetpp() Workload {
	const heapCap = 4096
	build := func(scale int) *isa.Program {
		events := specIters(scale, 60) * 4096
		b := asm.NewBuilder()
		l := newLayout()
		heapA := l.words(heapCap + 2)

		b.Label("main")
		b.LiU(isa.R1, heapA)
		b.Li(isa.R2, 0)           // heap size
		b.Li(isa.R3, 0x123456789) // rng
		b.Li(isa.R20, 0)          // processed
		b.Li(isa.R21, 0)          // xor of times
		b.Li(isa.R25, int64(events))
		// Seed 64 initial events: time = rng & 0xFFFF, type = rng & 3.
		b.Li(isa.R4, 0)
		b.Label("seed")
		emitXorshift(b, isa.R3, isa.R28)
		b.AndI(isa.R5, isa.R3, 0xFFFF)
		b.ShlI(isa.R5, isa.R5, 2)
		b.AndI(isa.R6, isa.R3, 3)
		b.Or(isa.R5, isa.R5, isa.R6) // packed event
		b.Call("push")
		b.AddI(isa.R4, isa.R4, 1)
		b.SltI(isa.R6, isa.R4, 64)
		b.Bnez(isa.R6, "seed")

		b.Label("evloop")
		b.Beqz(isa.R2, "finish")
		b.Call("pop") // min event in r5
		b.AddI(isa.R20, isa.R20, 1)
		b.Xor(isa.R21, isa.R21, isa.R5)
		b.Bge(isa.R20, isa.R25, "finish")
		// handler: by type, schedule 0..2 future events
		b.AndI(isa.R6, isa.R5, 3)
		b.ShrI(isa.R7, isa.R5, 2) // current time
		b.Beqz(isa.R6, "evloop")  // type 0: sink event
		// schedule one event at time + delay
		emitXorshift(b, isa.R3, isa.R28)
		b.AndI(isa.R8, isa.R3, 0x3FF)
		b.AddI(isa.R8, isa.R8, 1)
		b.Add(isa.R8, isa.R7, isa.R8)
		b.ShlI(isa.R8, isa.R8, 2)
		emitXorshift(b, isa.R3, isa.R28)
		b.AndI(isa.R9, isa.R3, 3)
		b.Or(isa.R5, isa.R8, isa.R9)
		b.Li(isa.R10, heapCap)
		b.Bge(isa.R2, isa.R10, "evloop") // heap full: drop
		b.Call("push")
		// types 2 and 3 fork a second event (keeps the population alive)
		b.SltI(isa.R10, isa.R6, 2)
		b.Bnez(isa.R10, "evloop")
		emitXorshift(b, isa.R3, isa.R28)
		b.AndI(isa.R8, isa.R3, 0x3FF)
		b.AddI(isa.R8, isa.R8, 1)
		b.Add(isa.R8, isa.R7, isa.R8)
		b.ShlI(isa.R8, isa.R8, 2)
		emitXorshift(b, isa.R3, isa.R28)
		b.AndI(isa.R9, isa.R3, 3)
		b.Or(isa.R5, isa.R8, isa.R9)
		b.Li(isa.R10, heapCap)
		b.Bge(isa.R2, isa.R10, "evloop")
		b.Call("push")
		b.Jmp("evloop")

		b.Label("finish")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()

		// push: heap[size++] = r5, sift up. clobbers r10-r16.
		b.Label("push")
		b.Mov(isa.R10, isa.R2) // i
		idx(b, isa.R11, isa.R1, isa.R10)
		b.St(isa.R11, 0, isa.R5)
		b.AddI(isa.R2, isa.R2, 1)
		b.Label("siftup")
		b.Beqz(isa.R10, "pushdone")
		b.AddI(isa.R12, isa.R10, -1)
		b.ShrI(isa.R12, isa.R12, 1) // parent
		idx(b, isa.R13, isa.R1, isa.R12)
		b.Ld(isa.R14, isa.R13, 0)
		idx(b, isa.R15, isa.R1, isa.R10)
		b.Ld(isa.R16, isa.R15, 0)
		b.Bgeu(isa.R16, isa.R14, "pushdone") // H2P: heap order
		b.St(isa.R13, 0, isa.R16)
		b.St(isa.R15, 0, isa.R14)
		b.Mov(isa.R10, isa.R12)
		b.Jmp("siftup")
		b.Label("pushdone")
		b.Ret()

		// pop: r5 = heap[0]; heap[0] = heap[--size]; sift down. clobbers r10-r19.
		b.Label("pop")
		b.Ld(isa.R5, isa.R1, 0)
		b.AddI(isa.R2, isa.R2, -1)
		idx(b, isa.R11, isa.R1, isa.R2)
		b.Ld(isa.R12, isa.R11, 0)
		b.St(isa.R1, 0, isa.R12)
		b.Li(isa.R10, 0) // i
		b.Label("siftdn")
		b.ShlI(isa.R12, isa.R10, 1)
		b.AddI(isa.R12, isa.R12, 1) // left child
		b.Bge(isa.R12, isa.R2, "popdone")
		idx(b, isa.R13, isa.R1, isa.R12)
		b.Ld(isa.R14, isa.R13, 0) // left value
		b.AddI(isa.R15, isa.R12, 1)
		b.Bge(isa.R15, isa.R2, "onechild")
		idx(b, isa.R16, isa.R1, isa.R15)
		b.Ld(isa.R17, isa.R16, 0)
		b.Bgeu(isa.R17, isa.R14, "onechild") // H2P: which child smaller
		b.Mov(isa.R12, isa.R15)
		b.Mov(isa.R14, isa.R17)
		b.Mov(isa.R13, isa.R16)
		b.Label("onechild")
		idx(b, isa.R18, isa.R1, isa.R10)
		b.Ld(isa.R19, isa.R18, 0)
		b.Bgeu(isa.R14, isa.R19, "popdone") // H2P: heap order restored?
		b.St(isa.R18, 0, isa.R14)
		b.St(isa.R13, 0, isa.R19)
		b.Mov(isa.R10, isa.R12)
		b.Jmp("siftdn")
		b.Label("popdone")
		b.Ret()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		events := specIters(scale, 60) * 4096
		var heap []uint64
		push := func(v uint64) {
			heap = append(heap, v)
			i := len(heap) - 1
			for i > 0 {
				p := (i - 1) / 2
				if heap[i] >= heap[p] {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		}
		pop := func() uint64 {
			v := heap[0]
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			i := 0
			for {
				c := 2*i + 1
				if c >= len(heap) {
					break
				}
				if c+1 < len(heap) && heap[c+1] < heap[c] {
					c++
				}
				if heap[c] >= heap[i] {
					break
				}
				heap[i], heap[c] = heap[c], heap[i]
				i = c
			}
			return v
		}
		r := newRng(0)
		*r = rng(0x123456789)
		var processed, acc uint64
		for i := 0; i < 64; i++ {
			t := (r.next() & 0xFFFF) << 2
			push(t | (uint64(*r) & 3))
		}
		for len(heap) > 0 {
			ev := pop()
			processed++
			acc ^= ev
			if processed >= uint64(events) {
				break
			}
			if ev&3 == 0 {
				continue
			}
			now := ev >> 2
			delay := (r.next() & 0x3FF) + 1
			t := (now + delay) << 2
			typ := r.next() & 3
			if len(heap) >= heapCap {
				continue
			}
			push(t | typ)
			if ev&3 >= 2 {
				delay2 := (r.next() & 0x3FF) + 1
				t2 := (now + delay2) << 2
				typ2 := r.next() & 3
				if len(heap) >= heapCap {
					continue
				}
				push(t2 | typ2)
			}
		}
		return []uint64{processed, acc}
	}
	return Workload{Name: "omnetpp", Flow: Complex, Build: build, Expected: expected}
}

// --- xalancbmk ---

// Xalancbmk is a tree-walking kernel: random-key probes descend a binary
// search tree (pointer chasing with data-dependent direction branches) and
// dispatch on the node kind at the end of each probe.
func Xalancbmk() Workload {
	const nNodes = 1 << 14
	type tree struct {
		key, left, right, kind []uint64
	}
	genTree := func() *tree {
		r := newRng(0xA1A)
		keys := make([]uint64, nNodes)
		for i := range keys {
			keys[i] = r.next() % (1 << 30)
		}
		slices.Sort(keys)
		t := &tree{
			key:   make([]uint64, nNodes),
			left:  make([]uint64, nNodes),
			right: make([]uint64, nNodes),
			kind:  make([]uint64, nNodes),
		}
		// Balanced BST from the sorted keys; node 0 unused as nil.
		next := 1
		var build func(lo, hi int) uint64
		build = func(lo, hi int) uint64 {
			if lo >= hi {
				return 0
			}
			mid := (lo + hi) / 2
			n := next
			next++
			t.key[n] = keys[mid]
			t.kind[n] = keys[mid] & 3
			t.left[n] = build(lo, mid)
			t.right[n] = build(mid+1, hi)
			return uint64(n)
		}
		build(0, nNodes-1)
		return t
	}
	build := func(scale int) *isa.Program {
		probes := specIters(scale, 16) * 8192
		t := genTree()
		b := asm.NewBuilder()
		l := newLayout()
		keyA := l.words(nNodes)
		leftA := l.words(nNodes)
		rightA := l.words(nNodes)
		kindA := l.words(nNodes)
		b.DataU64(keyA, t.key)
		b.DataU64(leftA, t.left)
		b.DataU64(rightA, t.right)
		b.DataU64(kindA, t.kind)

		b.Label("main")
		b.LiU(isa.R1, keyA)
		b.LiU(isa.R2, leftA)
		b.LiU(isa.R3, rightA)
		b.LiU(isa.R4, kindA)
		b.Li(isa.R5, 0x777AA)
		b.Li(isa.R20, 0) // found
		b.Li(isa.R21, 0) // kind histogram acc
		b.Li(isa.R22, 0) // probe counter
		b.Li(isa.R23, int64(probes))
		b.Label("probe")
		emitXorshift(b, isa.R5, isa.R28)
		b.AndI(isa.R7, isa.R5, (1<<30)-1) // probe key
		b.Li(isa.R8, 1)                   // node = root
		b.Label("walk")
		b.Beqz(isa.R8, "probenext")
		idx(b, isa.R10, isa.R1, isa.R8)
		b.Ld(isa.R11, isa.R10, 0) // node key
		b.Beq(isa.R11, isa.R7, "hit")
		b.Bltu(isa.R7, isa.R11, "goleft") // H2P descent direction
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Ld(isa.R8, isa.R10, 0)
		b.Jmp("walk")
		b.Label("goleft")
		idx(b, isa.R10, isa.R2, isa.R8)
		b.Ld(isa.R8, isa.R10, 0)
		b.Jmp("walk")
		b.Label("hit")
		b.AddI(isa.R20, isa.R20, 1)
		idx(b, isa.R10, isa.R4, isa.R8)
		b.Ld(isa.R12, isa.R10, 0)
		// kind dispatch
		b.Beqz(isa.R12, "k0")
		b.SltI(isa.R13, isa.R12, 2)
		b.Bnez(isa.R13, "k1")
		b.SltI(isa.R13, isa.R12, 3)
		b.Bnez(isa.R13, "k2")
		b.MulI(isa.R21, isa.R21, 3)
		b.Jmp("probenext")
		b.Label("k0")
		b.AddI(isa.R21, isa.R21, 1)
		b.Jmp("probenext")
		b.Label("k1")
		b.Xor(isa.R21, isa.R21, isa.R7)
		b.Jmp("probenext")
		b.Label("k2")
		b.Add(isa.R21, isa.R21, isa.R11)
		b.Label("probenext")
		b.AddI(isa.R22, isa.R22, 1)
		b.Blt(isa.R22, isa.R23, "probe")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		probes := specIters(scale, 16) * 8192
		t := genTree()
		r := newRng(0)
		*r = rng(0x777AA)
		var found, acc uint64
		for p := 0; p < probes; p++ {
			key := r.next() & ((1 << 30) - 1)
			node := uint64(1)
			for node != 0 {
				nk := t.key[node]
				if nk == key {
					found++
					switch t.kind[node] {
					case 0:
						acc++
					case 1:
						acc ^= key
					case 2:
						acc += nk
					default:
						acc *= 3
					}
					break
				}
				if key < nk {
					node = t.left[node]
				} else {
					node = t.right[node]
				}
			}
		}
		return []uint64{found, acc}
	}
	return Workload{Name: "xalancbmk", Flow: Complex, Build: build, Expected: expected}
}
