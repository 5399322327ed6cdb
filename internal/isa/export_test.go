package isa

// SetsFlags reports whether o writes the flags pseudo-register.
func (o Op) SetsFlags() bool { return o.info().setsFlag }

// IsProb reports whether o is one of the probabilistic instructions.
func (o Op) IsProb() bool { return o == PROBCMP || o == PROBJMP }

// StaticCondBranchCount returns the number of static conditional branches.
func (p *Program) StaticCondBranchCount() int {
	n := 0
	for pc, ins := range p.Code {
		if ins.Op.IsCondBranch() {
			if ins.Op == PROBJMP {
				if _, ok := ins.Target(pc); !ok {
					continue
				}
			}
			n++
		}
	}
	return n
}
