package isa

import (
	"fmt"
	"math"
)

// Word is the fixed 64-bit machine encoding of one instruction:
//
//	bits 63..56  opcode
//	bits 55..48  rd
//	bits 47..40  ra
//	bits 39..32  rb
//	bits 31..0   imm (two's complement)
//
// The probabilistic instructions occupy ordinary opcode space here; the
// alternative encoding the paper describes (stealing unused fields of
// existing compare/branch formats, §V-A2) is purely a bit-packing concern
// and is demonstrated by EncodeLegacy/DecodeLegacy.
type Word uint64

// Encode packs an instruction into its machine word.
func (i Instr) Encode() Word {
	return Word(uint64(i.Op)<<56 |
		uint64(i.Rd)<<48 |
		uint64(i.Ra)<<40 |
		uint64(i.Rb)<<32 |
		uint64(uint32(i.Imm)))
}

// Decode unpacks a machine word. It does not validate the opcode; use
// Instr.Validate or Program.Validate for that.
func Decode(w Word) Instr {
	return Instr{
		Op:  Op(w >> 56),
		Rd:  Reg(w >> 48),
		Ra:  Reg(w >> 40),
		Rb:  Reg(w >> 32),
		Imm: int32(uint32(w)),
	}
}

// legacyProbBit is the bit of the rd field (unused by CMP/FCMP and the
// conditional jumps) that marks an instruction as probabilistic in the
// backward-compatible encoding, mirroring the paper's reuse of the MIPS
// shamt / second-register fields (§V-A2).
const legacyProbBit Reg = 0x80

// EncodeLegacy encodes a probabilistic instruction on top of the ordinary
// compare/jump opcodes by setting an otherwise-unused field bit, so that a
// machine without PBS support decodes a plain compare/jump. PROBCMP maps to
// CMP or FCMP (by the comparison's float bit); PROBJMP maps to the
// conditional jump implementing the comparison kind.
func EncodeLegacy(i Instr) (Word, error) {
	switch i.Op {
	case PROBCMP:
		k := CmpKind(i.Imm)
		if !k.Valid() {
			return 0, fmt.Errorf("isa: invalid comparison kind %d", i.Imm)
		}
		op := CMP
		if k.IsFloat() {
			op = FCMP
		}
		legacy := Instr{Op: op, Rd: legacyProbBit | Reg(k.Base()), Ra: i.Ra, Rb: i.Rb}
		return legacy.Encode(), nil
	case PROBJMP:
		// The comparison kind was consumed by the compare; the jump that
		// pairs with "condition holds ⇒ taken" is JNE against the flag
		// outcome. We encode the value register in ra (unused by Jcc) and
		// mark the prob bit in rd.
		legacy := Instr{Op: JNE, Rd: legacyProbBit, Ra: i.Ra, Imm: i.Imm}
		return legacy.Encode(), nil
	default:
		return i.Encode(), nil
	}
}

// DecodeLegacy decodes a word produced by EncodeLegacy on a PBS-aware
// machine, recovering the probabilistic instruction when the prob bit is
// set. A PBS-unaware machine would use plain Decode and execute the
// compare/jump semantics.
func DecodeLegacy(w Word) Instr {
	i := Decode(w)
	if i.Rd&legacyProbBit == 0 {
		return i
	}
	switch i.Op {
	case CMP, FCMP:
		k := CmpKind(i.Rd &^ legacyProbBit)
		if i.Op == FCMP {
			k |= CmpFloat
		}
		return Instr{Op: PROBCMP, Ra: i.Ra, Rb: i.Rb, Imm: int32(k)}
	case JNE:
		return Instr{Op: PROBJMP, Ra: i.Ra, Imm: i.Imm}
	}
	return i
}

// EvalCmpInt evaluates an integer comparison a ? b.
func EvalCmpInt(k CmpKind, a, b int64) bool {
	switch k.Base() {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// EvalCmpFloat evaluates a float comparison a ? b. Comparisons with NaN
// follow IEEE semantics (all ordered comparisons false; NE true).
func EvalCmpFloat(k CmpKind, a, b float64) bool {
	switch k.Base() {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// EvalCmp evaluates k on raw register bits, interpreting them as float64
// when the kind's float bit is set.
func EvalCmp(k CmpKind, a, b uint64) bool {
	if k.IsFloat() {
		return EvalCmpFloat(k, math.Float64frombits(a), math.Float64frombits(b))
	}
	return EvalCmpInt(k, int64(a), int64(b))
}
