package emu

import (
	"math"

	"repro/internal/isa"
	"repro/internal/plan"
)

// This file is the emulator's one interpreter, behind both CPU.Run and
// CPU.Step. The plan partitions every program into maximal straight-line
// runs (see plan.Plan.BlockEnd); runFused executes whole runs per
// dispatch, with the dispatch loop, the interior instruction loop and the
// block-exit handlers fused into one function so a block transition is a
// backward branch, not a call chain. Interior instructions are
// guaranteed straight-line, so the interior loop carries no
// per-instruction overhead: no halted or pc-bounds checks, no
// per-instruction pc/instruction-count stores, register writes without
// an R0-discard branch (the plan remaps R0 destinations to
// plan.RdDiscard, a padding slot of the register file), and the trace
// batch is appended into a preflighted buffer whose room was reserved
// before the dispatch. The run's terminating control transfer,
// probabilistic instruction or HALT executes inline in the block-exit
// switch.
//
// Each instruction's semantics are written once, as its plain handler
// code (plan.H); a fused code (plan.Decoded.HF) executes several records
// in one dispatch and must leave exactly the state their plain codes
// would. A truncated dispatch runs one instruction under its plain code,
// so Step (a one-instruction budget) never takes a fused code, and
// TestFusedMatchesStep and FuzzFusedVsStep compare the two.
//
// Mid-block faults (division by zero, out-of-range memory access,
// float-to-int overflow, non-positive RANDI bounds) commit the
// instructions retired before the fault — pc, instruction count, and
// trace entries — and leave the machine stopped on the faulting
// instruction, exactly as one-instruction steps would.

// blockFault commits the i instructions retired before a mid-block fault
// (trace entries, instruction count ic+i, pc left on the faulting
// instruction) and builds the fault.
func (c *CPU) blockFault(base, i int, ic uint64, buf []DynInstr, format string, args ...any) error {
	c.buf = buf
	c.pc = base + i
	c.stats.Instructions = ic + uint64(i)
	return c.fault(format, args...)
}

// runFused is Run's hot loop: execute superblocks until HALT, a fault,
// or the instruction budget (0 = no limit). The pc, instruction count
// and trace buffer live in locals for the whole run and are written back
// to the CPU only at exit and fault points (and c.buf around internal
// flushes), so a block transition costs no architectural-state stores;
// every return leaves the CPU fields exact. Interior instructions run in
// a tight loop; each block's terminator is dispatched inline below. A
// dispatch truncated by the budget or by trace-buffer room runs a single
// interior instruction (the rest of the run resumes as its own block next
// iteration), so execution stops on exact instruction boundaries.
func (c *CPU) runFused(maxInstrs uint64) error {
	if c.halted {
		return nil
	}
	limit := maxInstrs
	if limit == 0 {
		limit = math.MaxUint64
	}
	code := c.plan.Code
	blockEnd := c.plan.BlockEnd
	intEnd := c.plan.IntEnd
	mem := c.mem
	buf := c.buf
	traced := buf != nil
	pc := c.pc
	ic := c.stats.Instructions
	var one [1]plan.Decoded
	for ic < limit {
		if pc < 0 || pc >= len(blockEnd) {
			c.pc = pc
			c.stats.Instructions = ic
			c.buf = buf
			return &Fault{PC: pc, Reason: "program counter out of range"}
		}
		// One dispatch per superblock tail. The BlockEnd sign says whether
		// the run ends in a terminator; truncation to the instruction
		// budget or to the room left in the trace batch buffer cuts the
		// terminator off, leaving a one-instruction interior dispatch (the
		// tail resumes as its own block next iteration). A run that falls
		// off the program end faults on the out-of-range pc next iteration.
		e := int(blockEnd[pc])
		term := e > 0
		if e < 0 {
			e = -e
		}
		n := e - pc
		trunc := false
		if rem := limit - ic; uint64(n) > rem {
			n = int(rem)
			term = false
			trunc = true
		}
		if traced {
			room := cap(buf) - len(buf)
			if room == 0 {
				c.buf = buf
				c.FlushTrace()
				buf = c.buf
				room = cap(buf) - len(buf)
			}
			if n > room {
				n = room
				term = false
				trunc = true
			}
		}
		base := pc
		var blk []plan.Decoded
		var ni int
		var tp bool
		if trunc {
			// A truncated dispatch (a budget stop or a filled trace batch)
			// could split a fusion, so it runs one instruction as a block
			// of its own, from a copy whose HF is its plain handler code.
			// The instruction is never a terminator: truncation leaves at
			// least one instruction of the run undispatched.
			one[0] = code[base]
			one[0].HF = one[0].H
			blk = one[:]
			ni = 1
		} else {
			blk = code[base : base+n]
			// The plan precomputed the interior extent per entry pc: ni
			// counts the individually dispatched prefix, and an interior end
			// short of e-1 means the terminator dispatch also executes the
			// claimed instructions in [ie, e-1) — see plan.Plan.IntEnd.
			ie := int(intEnd[base])
			ni = ie - base
			tp = term && ie < e-1
		}
		inner := blk[:ni]
		for i := 0; i < len(inner); i++ {
			d := &inner[i]
			ra := c.regs[d.Ra]
			var memAddr uint64

			switch d.HF {
			case plan.HNop:
			case plan.HMov:
				c.regs[d.Rd] = ra
			case plan.HLoadImm:
				c.regs[d.Rd] = d.Val

			case plan.HAdd:
				c.regs[d.Rd] = ra + c.regs[d.Rb]
			case plan.HSub:
				c.regs[d.Rd] = ra - c.regs[d.Rb]
			case plan.HMul:
				c.regs[d.Rd] = uint64(int64(ra) * int64(c.regs[d.Rb]))
			case plan.HDiv:
				rb := c.regs[d.Rb]
				if rb == 0 {
					return c.blockFault(base, i, ic, buf, "division by zero")
				}
				c.regs[d.Rd] = uint64(int64(ra) / int64(rb))
			case plan.HRem:
				rb := c.regs[d.Rb]
				if rb == 0 {
					return c.blockFault(base, i, ic, buf, "remainder by zero")
				}
				c.regs[d.Rd] = uint64(int64(ra) % int64(rb))
			case plan.HAnd:
				c.regs[d.Rd] = ra & c.regs[d.Rb]
			case plan.HOr:
				c.regs[d.Rd] = ra | c.regs[d.Rb]
			case plan.HXor:
				c.regs[d.Rd] = ra ^ c.regs[d.Rb]
			case plan.HShl:
				c.regs[d.Rd] = ra << (c.regs[d.Rb] & 63)
			case plan.HShr:
				c.regs[d.Rd] = ra >> (c.regs[d.Rb] & 63)
			case plan.HNeg:
				c.regs[d.Rd] = uint64(-int64(ra))

			case plan.HAddImm:
				c.regs[d.Rd] = ra + d.Val
			case plan.HMulImm:
				c.regs[d.Rd] = uint64(int64(ra) * int64(d.Val))
			case plan.HAndImm:
				c.regs[d.Rd] = ra & d.Val
			case plan.HOrImm:
				c.regs[d.Rd] = ra | d.Val
			case plan.HXorImm:
				c.regs[d.Rd] = ra ^ d.Val
			case plan.HShlImm:
				c.regs[d.Rd] = ra << d.Val
			case plan.HShrImm:
				c.regs[d.Rd] = ra >> d.Val

			case plan.HFAdd:
				c.regs[d.Rd] = bits(f64(ra) + f64(c.regs[d.Rb]))
			case plan.HFSub:
				c.regs[d.Rd] = bits(f64(ra) - f64(c.regs[d.Rb]))
			case plan.HFMul:
				c.regs[d.Rd] = bits(f64(ra) * f64(c.regs[d.Rb]))
			case plan.HFDiv:
				c.regs[d.Rd] = bits(f64(ra) / f64(c.regs[d.Rb]))
			case plan.HFSqrt:
				c.regs[d.Rd] = bits(math.Sqrt(f64(ra)))
			case plan.HFNeg:
				c.regs[d.Rd] = bits(-f64(ra))
			case plan.HFAbs:
				c.regs[d.Rd] = bits(math.Abs(f64(ra)))
			case plan.HFExp:
				c.regs[d.Rd] = bits(math.Exp(f64(ra)))
			case plan.HFLn:
				c.regs[d.Rd] = bits(math.Log(f64(ra)))
			case plan.HFSin:
				c.regs[d.Rd] = bits(math.Sin(f64(ra)))
			case plan.HFCos:
				c.regs[d.Rd] = bits(math.Cos(f64(ra)))
			case plan.HFMin:
				c.regs[d.Rd] = bits(math.Min(f64(ra), f64(c.regs[d.Rb])))
			case plan.HFMax:
				c.regs[d.Rd] = bits(math.Max(f64(ra), f64(c.regs[d.Rb])))
			case plan.HFFloor:
				c.regs[d.Rd] = bits(math.Floor(f64(ra)))
			case plan.HItoF:
				c.regs[d.Rd] = bits(float64(int64(ra)))
			case plan.HFtoI:
				f := f64(ra)
				if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
					return c.blockFault(base, i, ic, buf, "float to int conversion out of range (%g)", f)
				}
				c.regs[d.Rd] = uint64(int64(f))

			case plan.HLd:
				addr := int64(ra) + int64(d.Val)
				if addr < 0 || addr+8 > int64(len(mem)) {
					return c.blockFault(base, i, ic, buf, "load address %d out of range [0,%d)", addr, len(mem))
				}
				c.regs[d.Rd] = getWord(mem, uint64(addr))
				memAddr = uint64(addr)
				c.stats.Loads++
			case plan.HLdb:
				addr := int64(ra) + int64(d.Val)
				if addr < 0 || addr+1 > int64(len(mem)) {
					return c.blockFault(base, i, ic, buf, "load address %d out of range [0,%d)", addr, len(mem))
				}
				c.regs[d.Rd] = uint64(mem[addr])
				memAddr = uint64(addr)
				c.stats.Loads++
			case plan.HSt:
				addr := int64(ra) + int64(d.Val)
				if addr < 0 || addr+8 > int64(len(mem)) {
					return c.blockFault(base, i, ic, buf, "store address %d out of range [0,%d)", addr, len(mem))
				}
				putWord(mem, uint64(addr), c.regs[d.Rb])
				memAddr = uint64(addr)
				c.stats.Stores++
			case plan.HStb:
				addr := int64(ra) + int64(d.Val)
				if addr < 0 || addr+1 > int64(len(mem)) {
					return c.blockFault(base, i, ic, buf, "store address %d out of range [0,%d)", addr, len(mem))
				}
				mem[addr] = byte(c.regs[d.Rb])
				memAddr = uint64(addr)
				c.stats.Stores++

			case plan.HCmp:
				rb := c.regs[d.Rb]
				c.setFlags(int64(ra) < int64(rb), ra == rb)
			case plan.HCmpImm:
				b := int64(d.Val)
				c.setFlags(int64(ra) < b, int64(ra) == b)
			case plan.HFCmp:
				fa, fb := f64(ra), f64(c.regs[d.Rb])
				c.setFlags(fa < fb, fa == fb)

			case plan.HRandU:
				c.regs[d.Rd] = bits(c.rng.Float64())
				c.stats.RandDraws++
			case plan.HRandN:
				c.regs[d.Rd] = bits(c.rng.NormFloat64())
				c.stats.RandDraws++
			case plan.HRandI:
				v := int64(ra)
				if v <= 0 {
					return c.blockFault(base, i, ic, buf, "RANDI with non-positive bound %d", v)
				}
				c.regs[d.Rd] = uint64(c.rng.Int63n(v))
				c.stats.RandDraws++

			case plan.HOut:
				c.out = append(c.out, ra)
				c.stats.Outputs++

			// PROB_CMP and value-transfer PROB_JMPs manipulate the open
			// probabilistic group but never redirect control, so they are
			// block interiors; a group-state violation faults exactly like
			// an interior memory fault.
			case plan.HProbCmp:
				if c.group.open {
					return c.blockFault(base, i, ic, buf, "PROB_CMP while a probabilistic group is open")
				}
				c.group.open = true
				c.group.outcome = isa.EvalCmp(d.Kind, ra, c.regs[d.Rb])
				c.group.cmpVal = c.regs[d.Rb]
				c.group.vals = append(c.group.vals[:0], ra)
				c.group.regs = append(c.group.regs[:0], isa.Reg(d.Ra))
			case plan.HProbJmpMid:
				if !c.group.open {
					return c.blockFault(base, i, ic, buf, "PROB_JMP without open probabilistic group")
				}
				if d.Ra != 0 {
					c.group.vals = append(c.group.vals, ra)
					c.group.regs = append(c.group.regs, isa.Reg(d.Ra))
				}

			// Fused pairs (plan.Decoded.HF): one dispatch executes this
			// instruction and its successor, each from its own record. The
			// plan only forms pairs strictly inside a block interior and a
			// truncated dispatch runs its one record under its plain code,
			// so blk[i+1] is always part of this dispatch.
			case plan.HPLoadImmLoadImm:
				c.regs[d.Rd] = d.Val
				d2 := &blk[i+1]
				c.regs[d2.Rd] = d2.Val
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPLoadImmFAdd:
				c.regs[d.Rd] = d.Val
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) + f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPLoadImmFMul:
				c.regs[d.Rd] = d.Val
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) * f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFMulLoadImm:
				c.regs[d.Rd] = bits(f64(ra) * f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = d2.Val
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFMulFAdd:
				c.regs[d.Rd] = bits(f64(ra) * f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) + f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFMulFSub:
				c.regs[d.Rd] = bits(f64(ra) * f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) - f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFMulFMul:
				c.regs[d.Rd] = bits(f64(ra) * f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) * f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFAddFMul:
				c.regs[d.Rd] = bits(f64(ra) + f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) * f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPFSubFAdd:
				c.regs[d.Rd] = bits(f64(ra) - f64(c.regs[d.Rb]))
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) + f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPMovFMul:
				c.regs[d.Rd] = ra
				d2 := &blk[i+1]
				c.regs[d2.Rd] = bits(f64(c.regs[d2.Ra]) * f64(c.regs[d2.Rb]))
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPAddImmShlImm:
				c.regs[d.Rd] = ra + d.Val
				d2 := &blk[i+1]
				c.regs[d2.Rd] = c.regs[d2.Ra] << d2.Val
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPAddImmAddImm:
				c.regs[d.Rd] = ra + d.Val
				d2 := &blk[i+1]
				c.regs[d2.Rd] = c.regs[d2.Ra] + d2.Val
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1)})
				}
				i++
				continue
			case plan.HPShrImmSt:
				c.regs[d.Rd] = ra >> d.Val
				d2 := &blk[i+1]
				addr := int64(c.regs[d2.Ra]) + int64(d2.Val)
				if addr < 0 || addr+8 > int64(len(mem)) {
					if traced {
						buf = append(buf, DynInstr{PC: int32(base + i)})
					}
					return c.blockFault(base, i+1, ic, buf, "store address %d out of range [0,%d)", addr, len(mem))
				}
				putWord(mem, uint64(addr), c.regs[d2.Rb])
				c.stats.Stores++
				if traced {
					buf = append(buf, DynInstr{PC: int32(base + i)}, DynInstr{PC: int32(base + i + 1), MemAddr: uint64(addr)})
				}
				i++
				continue
			default:
				// Control and HALT handlers cannot appear in a block
				// interior by construction; anything else is undecodable.
				return c.blockFault(base, i, ic, buf, "unimplemented opcode")
			}

			if traced {
				buf = append(buf, DynInstr{PC: int32(base + i), MemAddr: memAddr})
			}
		}
		if !term {
			pc = base + ni
			ic += uint64(ni)
			continue
		}

		// The block exit. On terminator faults, pc stays on the terminator
		// and the terminator is not retired.
		tpc := base + n - 1
		d := &blk[n-1]
		ra := c.regs[d.Ra]
		next := tpc + 1
		var taken bool
		var prob ProbState
		hcode := d.H
		if tp {
			hcode = d.HF
		}
		switch hcode {
		case plan.HHalt:
			c.halted = true

		case plan.HJmp:
			next = int(d.Target)
			taken = true
			c.stats.Branches++
			if c.pbs != nil {
				c.pbs.OnBranch(tpc, next, true)
			}
		case plan.HJcc:
			taken = d.Val>>(c.regs[isa.FlagsReg]&3)&1 != 0
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			if c.pbs != nil {
				c.pbs.OnBranch(tpc, int(d.Target), taken)
			}

		// Fused compare/branch terminators: retire the compare at tpc-1
		// (flags write + its trace entry), then the conditional branch
		// exactly as plan.HJcc above. The common tail appends the branch's
		// trace entry.
		case plan.HPCmpJcc:
			dc := &blk[n-2]
			a, b := c.regs[dc.Ra], c.regs[dc.Rb]
			c.setFlags(int64(a) < int64(b), a == b)
			if traced {
				buf = append(buf, DynInstr{PC: int32(tpc - 1)})
			}
			taken = d.Val>>(c.regs[isa.FlagsReg]&3)&1 != 0
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			if c.pbs != nil {
				c.pbs.OnBranch(tpc, int(d.Target), taken)
			}
		case plan.HPCmpImmJcc:
			dc := &blk[n-2]
			a, b := int64(c.regs[dc.Ra]), int64(dc.Val)
			c.setFlags(a < b, a == b)
			if traced {
				buf = append(buf, DynInstr{PC: int32(tpc - 1)})
			}
			taken = d.Val>>(c.regs[isa.FlagsReg]&3)&1 != 0
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			if c.pbs != nil {
				c.pbs.OnBranch(tpc, int(d.Target), taken)
			}
		case plan.HPFCmpJcc:
			dc := &blk[n-2]
			fa, fb := f64(c.regs[dc.Ra]), f64(c.regs[dc.Rb])
			c.setFlags(fa < fb, fa == fb)
			if traced {
				buf = append(buf, DynInstr{PC: int32(tpc - 1)})
			}
			taken = d.Val>>(c.regs[isa.FlagsReg]&3)&1 != 0
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			if c.pbs != nil {
				c.pbs.OnBranch(tpc, int(d.Target), taken)
			}

		case plan.HPProbCmpJmp:
			// PROB_CMP opens the group and its terminal PROB_JMP closes it
			// within one dispatch; group.open is observably false
			// throughout, exactly as after sequential execution.
			dc := &blk[n-2]
			if c.group.open {
				return c.blockFault(base, n-2, ic, buf, "PROB_CMP while a probabilistic group is open")
			}
			rca := c.regs[dc.Ra]
			c.group.outcome = isa.EvalCmp(dc.Kind, rca, c.regs[dc.Rb])
			c.group.cmpVal = c.regs[dc.Rb]
			c.group.vals = append(c.group.vals[:0], rca)
			c.group.regs = append(c.group.regs[:0], isa.Reg(dc.Ra))
			if d.Ra != 0 {
				c.group.vals = append(c.group.vals, ra)
				c.group.regs = append(c.group.regs, isa.Reg(d.Ra))
			}
			if traced {
				buf = append(buf, DynInstr{PC: int32(tpc - 1)})
			}
			if c.pbs == nil && !c.CaptureProb {
				taken, prob = c.group.outcome, ProbRegular
			} else {
				c.pc = tpc
				taken, prob = c.resolveProb()
			}
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			c.stats.ProbBranches++

		case plan.HPMovCall:
			dc := &blk[n-2]
			c.regs[dc.Rd] = c.regs[dc.Ra]
			if traced {
				buf = append(buf, DynInstr{PC: int32(tpc - 1)})
			}
			c.regs[isa.LR] = uint64(tpc + 1)
			next = int(d.Target)
			taken = true
			c.stats.Branches++
			c.stats.Calls++
			if c.pbs != nil {
				c.pbs.OnCall(tpc)
			}

		case plan.HPDrand48Ret:
			// The whole rand_u01 leaf body: the eight-record drand48 step
			// (see plan.HPDrand48Ret) claimed into its RET. The claimed
			// region starts at blk[ni]; the two memory faults commit exactly
			// the preceding instructions.
			d0, d1, d2, d3 := &blk[ni], &blk[ni+1], &blk[ni+2], &blk[ni+3]
			d4, d5, d6, d7 := &blk[ni+4], &blk[ni+5], &blk[ni+6], &blk[ni+7]
			addr0 := int64(c.regs[d0.Ra]) + int64(d0.Val)
			if addr0 < 0 || addr0+8 > int64(len(mem)) {
				return c.blockFault(base, ni, ic, buf, "load address %d out of range [0,%d)", addr0, len(mem))
			}
			c.regs[d0.Rd] = getWord(mem, uint64(addr0))
			c.stats.Loads++
			c.regs[d1.Rd] = uint64(int64(c.regs[d1.Ra]) * int64(c.regs[d1.Rb]))
			c.regs[d2.Rd] = c.regs[d2.Ra] + d2.Val
			c.regs[d3.Rd] = c.regs[d3.Ra] << d3.Val
			c.regs[d4.Rd] = c.regs[d4.Ra] >> d4.Val
			addr5 := int64(c.regs[d5.Ra]) + int64(d5.Val)
			if addr5 < 0 || addr5+8 > int64(len(mem)) {
				if traced {
					buf = append(buf,
						DynInstr{PC: int32(base + ni), MemAddr: uint64(addr0)},
						DynInstr{PC: int32(base + ni + 1)},
						DynInstr{PC: int32(base + ni + 2)},
						DynInstr{PC: int32(base + ni + 3)},
						DynInstr{PC: int32(base + ni + 4)})
				}
				return c.blockFault(base, ni+5, ic, buf, "store address %d out of range [0,%d)", addr5, len(mem))
			}
			putWord(mem, uint64(addr5), c.regs[d5.Rb])
			c.stats.Stores++
			c.regs[d6.Rd] = bits(float64(int64(c.regs[d6.Ra])))
			c.regs[d7.Rd] = bits(f64(c.regs[d7.Ra]) * f64(c.regs[d7.Rb]))
			if traced {
				buf = append(buf,
					DynInstr{PC: int32(base + ni), MemAddr: uint64(addr0)},
					DynInstr{PC: int32(base + ni + 1)},
					DynInstr{PC: int32(base + ni + 2)},
					DynInstr{PC: int32(base + ni + 3)},
					DynInstr{PC: int32(base + ni + 4)},
					DynInstr{PC: int32(base + ni + 5), MemAddr: uint64(addr5)},
					DynInstr{PC: int32(base + ni + 6)},
					DynInstr{PC: int32(base + ni + 7)})
			}
			next = int(c.regs[isa.LR])
			if next < 0 || next > len(c.prog.Code) {
				return c.blockFault(base, n-1, ic, buf, "return to invalid pc %d", next)
			}
			taken = true
			c.stats.Branches++
			c.stats.Returns++
			if c.pbs != nil {
				c.pbs.OnRet()
			}

		case plan.HCall:
			c.regs[isa.LR] = uint64(tpc + 1)
			next = int(d.Target)
			taken = true
			c.stats.Branches++
			c.stats.Calls++
			if c.pbs != nil {
				c.pbs.OnCall(tpc)
			}
		case plan.HRet:
			next = int(c.regs[isa.LR])
			if next < 0 || next > len(c.prog.Code) {
				return c.blockFault(base, n-1, ic, buf, "return to invalid pc %d", next)
			}
			taken = true
			c.stats.Branches++
			c.stats.Returns++
			if c.pbs != nil {
				c.pbs.OnRet()
			}

		case plan.HProbJmp:
			if !c.group.open {
				return c.blockFault(base, n-1, ic, buf, "PROB_JMP without open probabilistic group")
			}
			if d.Ra != 0 {
				c.group.vals = append(c.group.vals, ra)
				c.group.regs = append(c.group.regs, isa.Reg(d.Ra))
			}
			c.group.open = false
			if c.pbs == nil && !c.CaptureProb {
				// resolveProb's no-PBS path without the call and group copy.
				taken, prob = c.group.outcome, ProbRegular
			} else {
				// resolveProb reads c.pc for the group's PC; sync it first.
				c.pc = tpc
				taken, prob = c.resolveProb()
			}
			if taken {
				next = int(d.Target)
			}
			c.stats.Branches++
			c.stats.CondBranches++
			c.stats.ProbBranches++
		}

		pc = next
		ic += uint64(n)
		if traced {
			buf = append(buf, DynInstr{PC: int32(tpc), Taken: taken, Prob: prob})
		}
		if c.halted {
			break
		}
	}
	c.pc = pc
	c.stats.Instructions = ic
	c.buf = buf
	return nil
}
