package emu

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/rng"
)

// RNG exposes the CPU's random stream so the session can checkpoint and
// restore it alongside the architectural state.
func (c *CPU) RNG() *rng.Stream { return c.rng }

// CheckpointState serializes the complete architectural state: PC, the
// register file, the memory image, execution counters, collected
// outputs, any open PROB_CMP..PROB_JMP group (a checkpoint may land
// between the compare and its terminal jump), and the captured
// probability streams. Configuration (program, plan, PBS wiring) and
// trace plumbing are not state: the owner reconstructs them, and the
// caller must have flushed the trace buffer first — the session
// checkpoints only between cpu.Run calls, which flush on return, so
// buffered entries indicate a misuse.
func (c *CPU) CheckpointState(w *ckpt.Writer) error {
	if len(c.buf) != 0 {
		return fmt.Errorf("emu: checkpoint with %d undelivered trace entries (flush first)", len(c.buf))
	}
	w.Int(int64(c.pc))
	w.Bool(c.halted)
	w.Uint64s(c.regs[:isa.NumDataflowRegs])
	w.Bytes(c.mem)
	w.Counters(&c.stats)
	w.Uint64s(c.out)
	w.Bool(c.group.open)
	if c.group.open {
		w.Bool(c.group.outcome)
		w.U64(c.group.cmpVal)
		w.Uint64s(c.group.vals)
		w.Uint(uint64(len(c.group.regs)))
		for _, reg := range c.group.regs {
			w.Uint(uint64(reg))
		}
	}
	w.Floats(c.Generated)
	w.Floats(c.Consumed)
	return nil
}

// RestoreState reads the field sequence written by CheckpointState. The
// CPU must have been built for the same program: the memory image size
// is the shape check (the session separately validates the program's
// content hash).
func (c *CPU) RestoreState(r *ckpt.Reader) error {
	pc := int(r.Int())
	halted := r.Bool()
	regs := r.Uint64s()
	mem := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if len(regs) != isa.NumDataflowRegs {
		return fmt.Errorf("emu: checkpoint has %d registers, machine has %d", len(regs), isa.NumDataflowRegs)
	}
	if len(mem) != len(c.mem) {
		return fmt.Errorf("emu: checkpoint memory image is %d bytes, program needs %d", len(mem), len(c.mem))
	}
	c.pc = pc
	c.halted = halted
	copy(c.regs[:], regs)
	copy(c.mem, mem)
	r.Counters(&c.stats)
	c.out = r.Uint64s()
	c.group = probGroup{open: r.Bool()}
	if c.group.open {
		c.group.outcome = r.Bool()
		c.group.cmpVal = r.U64()
		c.group.vals = r.Uint64s()
		nregs := r.Uint()
		if r.Err() == nil && nregs > uint64(r.Len()) {
			return fmt.Errorf("emu: checkpoint prob group claims %d registers with %d bytes left", nregs, r.Len())
		}
		c.group.regs = c.group.regs[:0]
		for i := uint64(0); i < nregs && r.Err() == nil; i++ {
			c.group.regs = append(c.group.regs, isa.Reg(r.Uint()))
		}
	}
	c.Generated = r.Floats()
	c.Consumed = r.Floats()
	return r.Err()
}
