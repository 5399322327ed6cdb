// Package isa defines the instruction set of the PBS reproduction machine:
// a 64-bit load/store RISC architecture with separate compare and jump
// instructions, extended with the two probabilistic instructions the paper
// proposes (PROB_CMP and PROB_JMP).
//
// Design points that matter for the reproduction:
//
//   - Branches are a compare (CMP/FCMP, setting flags) followed by a
//     conditional jump, mirroring the two-instruction idiom Section V-A of
//     the paper extends.
//   - All control-flow targets are PC-relative instruction offsets, so the
//     hardware loop detector (backward branch ⇒ loop) works exactly as in
//     Section V-C1.
//   - PROB_CMP carries the comparison kind and the register holding the
//     branch-controlling probabilistic value; PROB_JMP carries an optional
//     additional probabilistic register and the jump offset. Extra values
//     use extra PROB_JMP instructions whose offset is the NoTarget
//     sentinel, exactly as the paper describes for >2 values.
//   - On a machine without PBS hardware the probabilistic instructions
//     execute as a plain compare+jump, preserving the paper's backward
//     compatibility property.
package isa

import "fmt"

// Reg names an architectural register. The machine has 64 general
// registers; R0 is hardwired to zero (writes are discarded). By software
// convention R62 is the stack pointer and R63 the link register.
type Reg uint8

// Architectural register conventions.
const (
	R0 Reg = 0 // hardwired zero
	SP Reg = 62
	LR Reg = 63

	// NumRegs is the number of architectural registers.
	NumRegs = 64
	// FlagsReg is the pseudo-register index used by dataflow tracking for
	// the condition flags written by CMP/FCMP and read by conditional jumps.
	FlagsReg = 64
	// NumDataflowRegs is the size of dataflow scoreboards (registers+flags).
	NumDataflowRegs = 65
)

// Op is an operation code.
type Op uint8

// Operation codes.
const (
	NOP Op = iota
	HALT

	// Moves and constants.
	MOV  // rd = ra
	MOVI // rd = sign-extended imm32
	LDC  // rd = constant pool entry imm

	// Integer ALU.
	ADD // rd = ra + rb
	SUB // rd = ra - rb
	MUL // rd = ra * rb
	DIV // rd = ra / rb (signed; rb==0 faults)
	REM // rd = ra % rb (signed; rb==0 faults)
	AND // rd = ra & rb
	OR  // rd = ra | rb
	XOR // rd = ra ^ rb
	SHL // rd = ra << (rb & 63)
	SHR // rd = ra >> (rb & 63) (logical)
	NEG // rd = -ra

	ADDI // rd = ra + imm
	MULI // rd = ra * imm
	ANDI // rd = ra & imm (imm sign-extended)
	ORI  // rd = ra | imm
	XORI // rd = ra ^ imm
	SHLI // rd = ra << imm
	SHRI // rd = ra >> imm

	// Floating point (registers hold IEEE-754 float64 bits).
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT // rd = sqrt(ra)
	FNEG
	FABS
	FEXP
	FLN
	FSIN
	FCOS
	FMIN
	FMAX
	FFLOOR
	ITOF // rd = float64(int64(ra))
	FTOI // rd = int64(trunc(float64 bits of ra))

	// Memory (byte addressed, little endian; LD/ST move 8 bytes).
	LD  // rd = mem64[ra + imm]
	ST  // mem64[ra + imm] = rb
	LDB // rd = zero-extended mem8[ra + imm]
	STB // mem8[ra + imm] = low byte of rb

	// Compares (set the flags pseudo-register).
	CMP  // signed integer compare ra ? rb
	CMPI // signed integer compare ra ? imm
	FCMP // float compare ra ? rb (NaN compares unordered: !lt && !eq)

	// Control flow. Targets are PC-relative instruction offsets in imm.
	JMP
	JEQ
	JNE
	JLT
	JLE
	JGT
	JGE
	CALL // LR = pc+1; pc += imm
	RET  // pc = LR

	// Probabilistic branch support (the paper's ISA extension, §V-A).
	PROBCMP // optype in imm (CmpKind); ra = probabilistic reg; rb = compare reg
	PROBJMP // ra = additional probabilistic reg (R0 = none); imm = offset or NoTarget

	// Random number generation (the machine's probabilistic value source).
	RANDU // rd = uniform float64 in [0,1)
	RANDN // rd = standard normal float64 (Box-Muller)
	RANDI // rd = uniform int64 in [0, ra); ra must be > 0

	// Output: append the raw 64-bit value of ra to the program output stream.
	OUT

	numOps // sentinel; must be last
)

// NoTarget is the PROBJMP immediate sentinel meaning "this PROB_JMP only
// transfers an additional probabilistic value; the jump offset is carried
// by a later PROB_JMP of the same branch group".
const NoTarget int32 = 0

// CmpKind encodes the comparison operation of a PROBCMP instruction
// (the paper's "optype" field). The Float bit selects float64 comparison.
type CmpKind uint8

// Comparison kinds.
const (
	CmpEQ CmpKind = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// CmpFloat is OR-ed into a kind to compare as float64.
	CmpFloat    CmpKind = 0x8
	cmpKindMask         = 0x7
)

// Base returns the comparison without the float bit.
func (k CmpKind) Base() CmpKind { return k & cmpKindMask }

// IsFloat reports whether the comparison operates on float64 values.
func (k CmpKind) IsFloat() bool { return k&CmpFloat != 0 }

// Valid reports whether k encodes a defined comparison.
func (k CmpKind) Valid() bool { return k.Base() <= CmpGE && k&^(cmpKindMask|CmpFloat) == 0 }

func (k CmpKind) String() string {
	base := [...]string{"eq", "ne", "lt", "le", "gt", "ge"}
	if k.Base() > CmpGE {
		return fmt.Sprintf("cmpkind(%d)", uint8(k))
	}
	s := base[k.Base()]
	if k.IsFloat() {
		return "f" + s
	}
	return s
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int32
}

// Program is a complete executable: code, constant pool, and the initial
// data-memory image.
type Program struct {
	Name string
	Code []Instr
	// Consts is the 64-bit constant pool referenced by LDC.
	Consts []uint64
	// MemSize is the data memory size in bytes.
	MemSize int64
	// DataInit holds initial 64-bit data-memory words keyed by byte address.
	DataInit map[int64]uint64
	// Labels optionally maps symbolic names to instruction indices
	// (populated by the assembler and the builder for debugging).
	Labels map[string]int
}

// opInfo describes static properties of each opcode.
type opInfo struct {
	name     string
	hasRd    bool
	hasRa    bool
	hasRb    bool
	hasImm   bool
	branch   bool // conditional or unconditional control transfer with imm target
	cond     bool // conditional (reads flags)
	readsRa  bool
	readsRb  bool
	writesRd bool
	setsFlag bool
	load     bool
	store    bool
}

var opTable = [numOps]opInfo{
	NOP:  {name: "nop"},
	HALT: {name: "halt"},

	MOV:  {name: "mov", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	MOVI: {name: "movi", hasRd: true, hasImm: true, writesRd: true},
	LDC:  {name: "ldc", hasRd: true, hasImm: true, writesRd: true},

	ADD: {name: "add", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	SUB: {name: "sub", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	MUL: {name: "mul", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	DIV: {name: "div", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	REM: {name: "rem", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	AND: {name: "and", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	OR:  {name: "or", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	XOR: {name: "xor", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	SHL: {name: "shl", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	SHR: {name: "shr", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	NEG: {name: "neg", hasRd: true, hasRa: true, readsRa: true, writesRd: true},

	ADDI: {name: "addi", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	MULI: {name: "muli", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	ANDI: {name: "andi", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	ORI:  {name: "ori", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	XORI: {name: "xori", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	SHLI: {name: "shli", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},
	SHRI: {name: "shri", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true},

	FADD:   {name: "fadd", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FSUB:   {name: "fsub", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FMUL:   {name: "fmul", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FDIV:   {name: "fdiv", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FSQRT:  {name: "fsqrt", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FNEG:   {name: "fneg", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FABS:   {name: "fabs", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FEXP:   {name: "fexp", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FLN:    {name: "fln", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FSIN:   {name: "fsin", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FCOS:   {name: "fcos", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FMIN:   {name: "fmin", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FMAX:   {name: "fmax", hasRd: true, hasRa: true, hasRb: true, readsRa: true, readsRb: true, writesRd: true},
	FFLOOR: {name: "ffloor", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	ITOF:   {name: "itof", hasRd: true, hasRa: true, readsRa: true, writesRd: true},
	FTOI:   {name: "ftoi", hasRd: true, hasRa: true, readsRa: true, writesRd: true},

	LD:  {name: "ld", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true, load: true},
	ST:  {name: "st", hasRa: true, hasRb: true, hasImm: true, readsRa: true, readsRb: true, store: true},
	LDB: {name: "ldb", hasRd: true, hasRa: true, hasImm: true, readsRa: true, writesRd: true, load: true},
	STB: {name: "stb", hasRa: true, hasRb: true, hasImm: true, readsRa: true, readsRb: true, store: true},

	CMP:  {name: "cmp", hasRa: true, hasRb: true, readsRa: true, readsRb: true, setsFlag: true},
	CMPI: {name: "cmpi", hasRa: true, hasImm: true, readsRa: true, setsFlag: true},
	FCMP: {name: "fcmp", hasRa: true, hasRb: true, readsRa: true, readsRb: true, setsFlag: true},

	JMP: {name: "jmp", hasImm: true, branch: true},
	JEQ: {name: "jeq", hasImm: true, branch: true, cond: true},
	JNE: {name: "jne", hasImm: true, branch: true, cond: true},
	JLT: {name: "jlt", hasImm: true, branch: true, cond: true},
	JLE: {name: "jle", hasImm: true, branch: true, cond: true},
	JGT: {name: "jgt", hasImm: true, branch: true, cond: true},
	JGE: {name: "jge", hasImm: true, branch: true, cond: true},

	CALL: {name: "call", hasImm: true, branch: true},
	RET:  {name: "ret", branch: true},

	PROBCMP: {name: "prob_cmp", hasRa: true, hasRb: true, hasImm: true, readsRa: true, readsRb: true, setsFlag: true},
	PROBJMP: {name: "prob_jmp", hasRa: true, hasImm: true, readsRa: true, branch: true, cond: true},

	RANDU: {name: "randu", hasRd: true, writesRd: true},
	RANDN: {name: "randn", hasRd: true, writesRd: true},
	RANDI: {name: "randi", hasRd: true, hasRa: true, readsRa: true, writesRd: true},

	OUT: {name: "out", hasRa: true, readsRa: true},
}

func (o Op) info() opInfo {
	if o >= numOps {
		return opInfo{name: fmt.Sprintf("op(%d)", uint8(o))}
	}
	return opTable[o]
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

func (o Op) String() string { return o.info().name }

// IsBranch reports whether o transfers control (conditionally or not).
func (o Op) IsBranch() bool { return o.info().branch }

// IsCondBranch reports whether o is a conditional control transfer.
func (o Op) IsCondBranch() bool { i := o.info(); return i.branch && i.cond }

// IsLoad reports whether o reads data memory.
func (o Op) IsLoad() bool { return o.info().load }

// IsStore reports whether o writes data memory.
func (o Op) IsStore() bool { return o.info().store }

// ReadsFlags reports whether o reads the flags pseudo-register.
func (o Op) ReadsFlags() bool {
	switch o {
	case JEQ, JNE, JLT, JLE, JGT, JGE, PROBJMP:
		return true
	}
	return false
}

// SrcRegs appends the architectural source registers of i (including
// FlagsReg for flag readers) to dst and returns it.
func (i Instr) SrcRegs(dst []Reg) []Reg {
	info := i.Op.info()
	if info.readsRa && i.Ra != R0 {
		dst = append(dst, i.Ra)
	}
	if info.readsRb && i.Rb != R0 {
		dst = append(dst, i.Rb)
	}
	if i.Op.ReadsFlags() {
		dst = append(dst, FlagsReg)
	}
	if i.Op == RET {
		dst = append(dst, LR)
	}
	return dst
}

// DstRegs appends the architectural destination registers of i (including
// FlagsReg for flag writers) to dst and returns it.
//
// PROB_CMP has two destinations: its probabilistic register (the execution
// unit swaps in the previously recorded value, §V-A1) and the flags that
// carry the comparison outcome to the paired PROB_JMP. A PROB_JMP with a
// value register likewise writes that register during the swap.
func (i Instr) DstRegs(dst []Reg) []Reg {
	info := i.Op.info()
	switch {
	case i.Op == PROBCMP:
		if i.Ra != R0 {
			dst = append(dst, i.Ra)
		}
		return append(dst, FlagsReg)
	case i.Op == PROBJMP:
		if i.Ra != R0 {
			dst = append(dst, i.Ra)
		}
		return dst
	case info.writesRd:
		if i.Rd != R0 {
			dst = append(dst, i.Rd)
		}
		return dst
	case info.setsFlag:
		return append(dst, FlagsReg)
	case i.Op == CALL:
		return append(dst, LR)
	}
	return dst
}

// Target returns the PC-relative target (as an absolute instruction index)
// of a branch at index pc, and whether the instruction has a static target.
// RET has no static target; an intermediate PROBJMP (Imm == NoTarget) has
// no target either.
func (i Instr) Target(pc int) (int, bool) {
	if !i.Op.IsBranch() || i.Op == RET {
		return 0, false
	}
	if i.Op == PROBJMP && i.Imm == NoTarget {
		return 0, false
	}
	return pc + int(i.Imm), true
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	info := i.Op.info()
	s := info.name
	sep := " "
	add := func(part string) {
		s += sep + part
		sep = ", "
	}
	if i.Op == PROBCMP {
		add(CmpKind(i.Imm).String())
		add(fmt.Sprintf("r%d", i.Ra))
		add(fmt.Sprintf("r%d", i.Rb))
		return s
	}
	if info.hasRd {
		add(fmt.Sprintf("r%d", i.Rd))
	}
	if info.hasRa {
		add(fmt.Sprintf("r%d", i.Ra))
	}
	if info.hasRb {
		add(fmt.Sprintf("r%d", i.Rb))
	}
	if info.hasImm {
		add(fmt.Sprintf("%d", i.Imm))
	}
	return s
}

// Operands reports which fields the instruction format of o uses, for
// assemblers and other tooling.
func (o Op) Operands() (hasRd, hasRa, hasRb, hasImm bool) {
	i := o.info()
	return i.hasRd, i.hasRa, i.hasRb, i.hasImm
}

// OpByName resolves an assembler mnemonic to its opcode.
func OpByName(name string) (Op, bool) {
	for op := Op(0); op < numOps; op++ {
		if opTable[op].name == name {
			return op, true
		}
	}
	return 0, false
}

// CmpKindByName resolves a comparison mnemonic ("lt", "fge", ...).
func CmpKindByName(name string) (CmpKind, bool) {
	float := false
	if len(name) > 1 && name[0] == 'f' {
		float = true
		name = name[1:]
	}
	var k CmpKind
	switch name {
	case "eq":
		k = CmpEQ
	case "ne":
		k = CmpNE
	case "lt":
		k = CmpLT
	case "le":
		k = CmpLE
	case "gt":
		k = CmpGT
	case "ge":
		k = CmpGE
	default:
		return 0, false
	}
	if float {
		k |= CmpFloat
	}
	return k, true
}
