// Package progb is a small program-builder DSL for emitting machine
// programs against the PBS ISA. It plays the role of the compiler in the
// paper's hardware/software cooperation: the same source description
// emits either regular compare+jump pairs or the probabilistic
// PROB_CMP/PROB_JMP pairs, depending on whether probabilistic marking is
// enabled (§V-B: "we manually convert traditional branches to
// probabilistic branches whenever appropriate").
package progb

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

type fixup struct {
	pc    int
	label string
}

// Builder incrementally assembles a program. Methods record errors
// internally; Finish reports the first one.
type Builder struct {
	name     string
	prob     bool
	ins      []isa.Instr
	consts   []uint64
	constIdx map[uint64]int32
	labels   map[string]int
	fixups   []fixup
	memTop   int64
	dataInit map[int64]uint64
	nextAuto int
	errs     []error
}

// New returns a builder for a program with the given name. When prob is
// true, marked branches are emitted as probabilistic instructions;
// otherwise as ordinary compare+jump pairs.
func New(name string, prob bool) *Builder {
	return &Builder{
		name:     name,
		prob:     prob,
		constIdx: make(map[uint64]int32),
		labels:   make(map[string]int),
		dataInit: make(map[int64]uint64),
	}
}

// Prob reports whether marked branches are emitted probabilistically.
func (b *Builder) Prob() bool { return b.prob }

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("progb %q: "+format, append([]any{b.name}, args...)...))
}

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() int { return len(b.ins) }

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(i isa.Instr) int {
	b.ins = append(b.ins, i)
	return len(b.ins) - 1
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.ins)
}

// AutoLabel returns a fresh unique label with the given prefix.
func (b *Builder) AutoLabel(prefix string) string {
	b.nextAuto++
	return fmt.Sprintf(".%s_%d", prefix, b.nextAuto)
}

// constID interns a 64-bit constant in the pool.
func (b *Builder) constID(v uint64) int32 {
	if id, ok := b.constIdx[v]; ok {
		return id
	}
	id := int32(len(b.consts))
	b.consts = append(b.consts, v)
	b.constIdx[v] = id
	return id
}

// --- data segment ---

// Alloc reserves n bytes of data memory (8-byte aligned) and returns the
// base address.
func (b *Builder) Alloc(n int64) int64 {
	if n < 0 {
		b.errf("negative allocation %d", n)
		return 0
	}
	addr := b.memTop
	b.memTop += (n + 7) &^ 7
	return addr
}

// AllocWords reserves n 64-bit words and returns the base address.
func (b *Builder) AllocWords(n int64) int64 { return b.Alloc(n * 8) }

// InitWord sets the initial value of the 64-bit data word at addr.
func (b *Builder) InitWord(addr int64, v uint64) {
	if addr%8 != 0 {
		b.errf("unaligned data init at %d", addr)
		return
	}
	b.dataInit[addr] = v
}

// InitFloat sets the initial value of the data word at addr to a float64.
func (b *Builder) InitFloat(addr int64, f float64) { b.InitWord(addr, math.Float64bits(f)) }

// --- moves and constants ---

// MovInt loads a 64-bit integer into rd, using MOVI when it fits in 32
// bits and the constant pool otherwise.
func (b *Builder) MovInt(rd isa.Reg, v int64) {
	if v >= math.MinInt32 && v <= math.MaxInt32 {
		b.Emit(isa.Instr{Op: isa.MOVI, Rd: rd, Imm: int32(v)})
		return
	}
	b.Emit(isa.Instr{Op: isa.LDC, Rd: rd, Imm: b.constID(uint64(v))})
}

// MovFloat loads a float64 constant into rd via the constant pool.
func (b *Builder) MovFloat(rd isa.Reg, f float64) {
	b.Emit(isa.Instr{Op: isa.LDC, Rd: rd, Imm: b.constID(math.Float64bits(f))})
}

// Mov copies ra into rd.
func (b *Builder) Mov(rd, ra isa.Reg) { b.Emit(isa.Instr{Op: isa.MOV, Rd: rd, Ra: ra}) }

// --- ALU convenience wrappers ---

// Op3 emits a three-register operation rd = ra op rb.
func (b *Builder) Op3(op isa.Op, rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// Op2 emits a two-register operation rd = op(ra).
func (b *Builder) Op2(op isa.Op, rd, ra isa.Reg) {
	b.Emit(isa.Instr{Op: op, Rd: rd, Ra: ra})
}

// OpI emits an immediate operation rd = ra op imm.
func (b *Builder) OpI(op isa.Op, rd, ra isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// AddI emits rd = ra + imm.
func (b *Builder) AddI(rd, ra isa.Reg, imm int32) { b.OpI(isa.ADDI, rd, ra, imm) }

// --- memory ---

// Load emits rd = mem64[ra+off].
func (b *Builder) Load(rd, ra isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.LD, Rd: rd, Ra: ra, Imm: off})
}

// Store emits mem64[ra+off] = rb.
func (b *Builder) Store(ra isa.Reg, off int32, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.ST, Ra: ra, Rb: rb, Imm: off})
}

// LoadB emits rd = mem8[ra+off].
func (b *Builder) LoadB(rd, ra isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.LDB, Rd: rd, Ra: ra, Imm: off})
}

// StoreB emits mem8[ra+off] = rb.
func (b *Builder) StoreB(ra isa.Reg, off int32, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.STB, Ra: ra, Rb: rb, Imm: off})
}

// --- RNG and output ---

// RandU emits rd = uniform [0,1).
func (b *Builder) RandU(rd isa.Reg) { b.Emit(isa.Instr{Op: isa.RANDU, Rd: rd}) }

// RandI emits rd = uniform integer in [0, ra).
func (b *Builder) RandI(rd, ra isa.Reg) { b.Emit(isa.Instr{Op: isa.RANDI, Rd: rd, Ra: ra}) }

// Out emits the output of register ra.
func (b *Builder) Out(ra isa.Reg) { b.Emit(isa.Instr{Op: isa.OUT, Ra: ra}) }

// Halt stops the program.
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.HALT}) }

// --- control flow ---

func (b *Builder) emitBranch(op isa.Op, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.ins), label: label})
	b.Emit(isa.Instr{Op: op})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) { b.emitBranch(isa.JMP, label) }

// Call emits a function call to label.
func (b *Builder) Call(label string) { b.emitBranch(isa.CALL, label) }

// Ret emits a function return.
func (b *Builder) Ret() { b.Emit(isa.Instr{Op: isa.RET}) }

// jccFor maps a comparison kind to the conditional jump taken when the
// comparison holds.
func jccFor(kind isa.CmpKind) isa.Op {
	switch kind.Base() {
	case isa.CmpEQ:
		return isa.JEQ
	case isa.CmpNE:
		return isa.JNE
	case isa.CmpLT:
		return isa.JLT
	case isa.CmpLE:
		return isa.JLE
	case isa.CmpGT:
		return isa.JGT
	case isa.CmpGE:
		return isa.JGE
	}
	return isa.JMP
}

// BranchIf emits a regular compare+jump: jump to label when "ra kind rb"
// holds. The float bit of kind selects FCMP.
func (b *Builder) BranchIf(kind isa.CmpKind, ra, rb isa.Reg, label string) {
	cmpOp := isa.CMP
	if kind.IsFloat() {
		cmpOp = isa.FCMP
	}
	b.Emit(isa.Instr{Op: cmpOp, Ra: ra, Rb: rb})
	b.emitBranch(jccFor(kind), label)
}

// BranchIfI emits a compare-with-immediate + jump (integer only).
func (b *Builder) BranchIfI(kind isa.CmpKind, ra isa.Reg, imm int32, label string) {
	if kind.IsFloat() {
		b.errf("BranchIfI does not support float comparisons")
		return
	}
	b.Emit(isa.Instr{Op: isa.CMPI, Ra: ra, Imm: imm})
	b.emitBranch(jccFor(kind), label)
}

// MarkedBranchIf emits a branch that the software marks as probabilistic
// (§V-B). probReg holds the branch-controlling probabilistic value and is
// compared against cmpReg; extraVals are additional probabilistic
// registers that the control-dependent code reads after the branch
// (Category-2) and must therefore be recorded/swapped by PBS. The branch
// jumps to label when "probReg kind cmpReg" holds.
//
// With probabilistic marking disabled the exact same control flow is
// emitted as a regular compare+jump, giving the baseline binary.
func (b *Builder) MarkedBranchIf(kind isa.CmpKind, probReg, cmpReg isa.Reg, extraVals []isa.Reg, label string) {
	if !b.prob {
		b.BranchIf(kind, probReg, cmpReg, label)
		return
	}
	b.Emit(isa.Instr{Op: isa.PROBCMP, Ra: probReg, Rb: cmpReg, Imm: int32(kind)})
	for i, v := range extraVals {
		if v == isa.R0 {
			b.errf("probabilistic value register cannot be r0")
		}
		if i < len(extraVals)-1 {
			b.Emit(isa.Instr{Op: isa.PROBJMP, Ra: v, Imm: isa.NoTarget})
		} else {
			b.fixups = append(b.fixups, fixup{pc: len(b.ins), label: label})
			b.Emit(isa.Instr{Op: isa.PROBJMP, Ra: v})
		}
	}
	if len(extraVals) == 0 {
		b.fixups = append(b.fixups, fixup{pc: len(b.ins), label: label})
		b.Emit(isa.Instr{Op: isa.PROBJMP, Ra: isa.R0})
	}
}

// ForN emits a counted loop: body runs n times (n must be >= 1 at run
// time). idx counts 0..n-1 and must not be clobbered by body; bound holds
// n. The loop closes with a backward conditional branch, which is what the
// PBS loop detector keys on.
func (b *Builder) ForN(idx, bound isa.Reg, body func()) {
	head := b.AutoLabel("loop")
	b.Emit(isa.Instr{Op: isa.MOVI, Rd: idx, Imm: 0})
	b.Label(head)
	body()
	b.AddI(idx, idx, 1)
	b.BranchIf(isa.CmpLT, idx, bound, head)
}

// IfElse emits: if "ra kind rb" then thenBody else elseBody (elseBody may
// be nil). This is regular (non-probabilistic) control flow.
func (b *Builder) IfElse(kind isa.CmpKind, ra, rb isa.Reg, thenBody, elseBody func()) {
	elseL := b.AutoLabel("else")
	endL := b.AutoLabel("endif")
	// Branch to else when the condition does NOT hold: invert the kind.
	b.BranchIf(invert(kind), ra, rb, elseL)
	thenBody()
	if elseBody != nil {
		b.Jmp(endL)
	}
	b.Label(elseL)
	if elseBody != nil {
		elseBody()
		b.Label(endL)
	}
}

// invert returns the comparison kind testing the opposite condition.
func invert(kind isa.CmpKind) isa.CmpKind {
	var inv isa.CmpKind
	switch kind.Base() {
	case isa.CmpEQ:
		inv = isa.CmpNE
	case isa.CmpNE:
		inv = isa.CmpEQ
	case isa.CmpLT:
		inv = isa.CmpGE
	case isa.CmpLE:
		inv = isa.CmpGT
	case isa.CmpGT:
		inv = isa.CmpLE
	case isa.CmpGE:
		inv = isa.CmpLT
	}
	if kind.IsFloat() {
		inv |= isa.CmpFloat
	}
	return inv
}

// Finish resolves labels and returns the validated program.
func (b *Builder) Finish() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("progb %q: undefined label %q", b.name, f.label)
		}
		off := target - f.pc
		b.ins[f.pc].Imm = int32(off)
	}
	memSize := b.memTop
	if memSize == 0 {
		memSize = 8
	}
	p := &isa.Program{
		Name:     b.name,
		Code:     append([]isa.Instr(nil), b.ins...),
		Consts:   append([]uint64(nil), b.consts...),
		MemSize:  memSize,
		DataInit: b.dataInit,
		Labels:   b.labels,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
