package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Validate checks static well-formedness of a single instruction at the
// given code index within a program of length codeLen with nConsts pool
// entries.
func (i Instr) Validate(pc, codeLen, nConsts int) error {
	if !i.Op.Valid() {
		return fmt.Errorf("pc %d: invalid opcode %d", pc, uint8(i.Op))
	}
	info := i.Op.info()
	if int(i.Rd) >= NumRegs || int(i.Ra) >= NumRegs || int(i.Rb) >= NumRegs {
		return fmt.Errorf("pc %d: %s: register out of range", pc, i)
	}
	if i.Op == LDC && (i.Imm < 0 || int(i.Imm) >= nConsts) {
		return fmt.Errorf("pc %d: %s: constant index %d out of range (%d consts)", pc, i, i.Imm, nConsts)
	}
	if i.Op == PROBCMP && !CmpKind(i.Imm).Valid() {
		return fmt.Errorf("pc %d: %s: invalid comparison kind %d", pc, i, i.Imm)
	}
	if info.branch && i.Op != RET {
		if i.Op == PROBJMP && i.Imm == NoTarget {
			return nil // intermediate value-transfer PROB_JMP
		}
		t := pc + int(i.Imm)
		if t < 0 || t >= codeLen {
			return fmt.Errorf("pc %d: %s: target %d out of range [0,%d)", pc, i, t, codeLen)
		}
		if i.Imm == 0 {
			return fmt.Errorf("pc %d: %s: self-targeting branch", pc, i)
		}
	}
	return nil
}

// Validate checks the whole program: every instruction well formed, every
// branch target in range, the data image inside MemSize, and every
// probabilistic branch group well formed (a PROBCMP followed by one or more
// PROBJMPs of which exactly the last carries a target).
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	for pc, ins := range p.Code {
		if err := ins.Validate(pc, len(p.Code), len(p.Consts)); err != nil {
			return fmt.Errorf("program %q: %w", p.Name, err)
		}
	}
	for addr := range p.DataInit {
		if addr < 0 || addr+8 > p.MemSize {
			return fmt.Errorf("program %q: data init word at %d outside memory size %d", p.Name, addr, p.MemSize)
		}
	}
	return p.validateProbGroups()
}

// validateProbGroups enforces the PROB_CMP / PROB_JMP pairing rules of
// §V-A1: each PROBCMP must be followed (with no intervening control flow or
// other probabilistic compare) by at least one PROBJMP; every PROBJMP chain
// terminates with a targeted PROBJMP; a PROBJMP never appears without a
// preceding PROBCMP.
func (p *Program) validateProbGroups() error {
	open := -1 // pc of the PROBCMP whose group is currently open
	for pc, ins := range p.Code {
		switch ins.Op {
		case PROBCMP:
			if open >= 0 {
				return fmt.Errorf("program %q: pc %d: PROB_CMP while group from pc %d is unterminated", p.Name, pc, open)
			}
			open = pc
		case PROBJMP:
			if open < 0 {
				return fmt.Errorf("program %q: pc %d: PROB_JMP without preceding PROB_CMP", p.Name, pc)
			}
			if ins.Imm != NoTarget {
				open = -1 // group closed by the targeted jump
			}
		default:
			if open >= 0 {
				return fmt.Errorf("program %q: pc %d: %s inside probabilistic group from pc %d (only PROB_JMP may follow PROB_CMP)", p.Name, pc, ins.Op, open)
			}
		}
	}
	if open >= 0 {
		return fmt.Errorf("program %q: probabilistic group from pc %d never terminated", p.Name, open)
	}
	return nil
}

// ProbBranchPCs returns the instruction indices of the terminal (targeted)
// PROBJMP of every probabilistic branch group, in program order. These are
// the PCs the PBS hardware tracks (PCprob in the paper).
func (p *Program) ProbBranchPCs() []int {
	var pcs []int
	for pc, ins := range p.Code {
		if ins.Op == PROBJMP && ins.Imm != NoTarget {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// StaticBranchCount returns the number of static branch instructions
// (conditional and unconditional, including probabilistic jumps and
// call/ret) in the program. Used for the Table II prob/static ratio.
func (p *Program) StaticBranchCount() int {
	n := 0
	for _, ins := range p.Code {
		if ins.Op.IsBranch() {
			n++
		}
	}
	return n
}

// Disassemble renders the whole program, one instruction per line, with
// label annotations and branch target comments.
func (p *Program) Disassemble() string {
	labelAt := map[int][]string{}
	for name, pc := range p.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	for _, names := range labelAt {
		sort.Strings(names)
	}
	var b strings.Builder
	for pc, ins := range p.Code {
		for _, l := range labelAt[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%5d:  %s", pc, ins)
		if t, ok := ins.Target(pc); ok {
			fmt.Fprintf(&b, "\t; -> %d", t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:    p.Name,
		Code:    append([]Instr(nil), p.Code...),
		Consts:  append([]uint64(nil), p.Consts...),
		MemSize: p.MemSize,
	}
	if p.DataInit != nil {
		q.DataInit = make(map[int64]uint64, len(p.DataInit))
		for k, v := range p.DataInit {
			q.DataInit[k] = v
		}
	}
	if p.Labels != nil {
		q.Labels = make(map[string]int, len(p.Labels))
		for k, v := range p.Labels {
			q.Labels[k] = v
		}
	}
	return q
}
