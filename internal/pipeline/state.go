package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/plan"
)

// CheckpointState serializes the schedule's mutable state: the
// Instructions and Cycles counters, fetch cursors, the architectural
// dataflow readiness cells, the ROB ring and the live slice of the
// functional-unit time rings. Config-derived fields (latencies, depths,
// masks) are rebuilt by New; the miss-event stage, which the pipeline
// may share, is checkpointed once by Events.CheckpointState.
//
// The FU rings are encoded as their live cells only: schedule only ever
// probes cycles at or after the current fetch cycle, so cells whose
// stamped cycle is already in the past can never match a future probe —
// they are dead storage and restore as empty with identical scheduling
// behavior. Each class writes its live cells as (cycle, count) pairs in
// cycle order, the cycle as a delta from the fetch cycle or the previous
// cell, so the bytes depend on the schedule alone, not on a ring's size
// or the order in which it grew. A class with no ring writes no cells.
func (p *Pipeline) CheckpointState(w *ckpt.Writer) error {
	w.Uint(p.instructions)
	w.Uint(p.cycles)
	w.Uint(p.curFetchCycle)
	w.Int(int64(p.fetchedInCycle))
	w.Bool(p.breakFetch)
	w.Uint(p.fetchBlockedUntil)
	w.Uint64s(p.regReady[:isa.NumDataflowRegs])
	w.Uint64s(p.robRing)
	w.Int(int64(p.robPos))

	var live []fuCell
	for class := range p.fus.rings {
		live = live[:0]
		for _, c := range p.fus.rings[class] {
			if c.live(p.curFetchCycle) {
				live = append(live, c)
			}
		}
		slices.Sort(live) // cycle order: the cycle is the high bits
		w.Uint(uint64(len(live)))
		prev := p.curFetchCycle
		for _, c := range live {
			w.Uint(c.cycle() - prev)
			w.Uint(uint64(c.count()))
			prev = c.cycle()
		}
	}
	return nil
}

// RestoreState reads the field sequence written by CheckpointState into
// a pipeline built with the same configuration and program. Live FU
// cells of a class the program does not use are an error.
func (p *Pipeline) RestoreState(r *ckpt.Reader) error {
	p.instructions = r.Uint()
	p.cycles = r.Uint()
	p.curFetchCycle = r.Uint()
	p.fetchedInCycle = int(r.Int())
	p.breakFetch = r.Bool()
	p.fetchBlockedUntil = r.Uint()
	regReady := r.Uint64s()
	robRing := r.Uint64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(regReady) != isa.NumDataflowRegs {
		return fmt.Errorf("pipeline: checkpoint has %d ready registers, machine has %d", len(regReady), isa.NumDataflowRegs)
	}
	if len(robRing) != len(p.robRing) {
		return fmt.Errorf("pipeline: checkpoint ROB ring is %d entries, configuration needs %d", len(robRing), len(p.robRing))
	}
	copy(p.regReady[:], regReady)
	copy(p.robRing, robRing)
	p.robPos = int(r.Int())
	if r.Err() == nil && (p.robPos < 0 || p.robPos >= len(p.robRing)) {
		return fmt.Errorf("pipeline: checkpoint ROB cursor %d out of range", p.robPos)
	}

	p.fus.reset(p.fus.units, p.plan.FUs)
	for class := range p.fus.rings {
		live := r.Uint()
		if r.Err() == nil && live > uint64(r.Len()) {
			return fmt.Errorf("pipeline: checkpoint claims %d live FU cells with %d bytes left", live, r.Len())
		}
		if r.Err() == nil && live > 0 && !p.plan.FUs.Has(plan.FUClass(class)) {
			return fmt.Errorf("pipeline: checkpoint has %d live FU cells of class %d, which the program does not use", live, class)
		}
		cycle := p.curFetchCycle
		for i := uint64(0); i < live && r.Err() == nil; i++ {
			delta, count := r.Uint(), r.Uint()
			if r.Err() != nil {
				break
			}
			next := cycle + delta
			if (i > 0 && delta == 0) || next < cycle || next >= 1<<56 || count == 0 || count > 0xff {
				return fmt.Errorf("pipeline: checkpoint FU cell %d of class %d is empty, out of order or out of range", i, class)
			}
			cycle = next
			*p.fus.slot(plan.FUClass(class), cycle, p.curFetchCycle) = fuCell(cycle<<8 | count)
		}
	}
	return r.Err()
}

// CheckpointState serializes the miss-event stage: the predictor's name
// and state, the trace-determined counters, the L1I and L1D line-streak
// registers and the cache hierarchy. The event record is not written:
// it is rewritten by the next batch's event pass before any schedule
// reads it.
func (st *Events) CheckpointState(w *ckpt.Writer) error {
	w.String(st.pred.Name())
	if err := st.pred.CheckpointState(w); err != nil {
		return err
	}
	w.Counters(&st.m)
	w.U64(st.lastIBlock)
	w.U64(st.lastDBlock)
	return st.hier.CheckpointState(w)
}

// RestoreState reads the field sequence written by CheckpointState into
// a stage built with the same configuration and predictor kind.
func (st *Events) RestoreState(r *ckpt.Reader) error {
	name := r.String()
	if err := r.Err(); err != nil {
		return err
	}
	if name != st.pred.Name() {
		return fmt.Errorf("pipeline: checkpoint predictor %q does not match the stage's predictor %q", name, st.pred.Name())
	}
	if err := st.pred.RestoreState(r); err != nil {
		return err
	}
	r.Counters(&st.m)
	st.lastIBlock = r.U64()
	st.lastDBlock = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	return st.hier.RestoreState(r)
}
