package core

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
)

// CheckpointState serializes the unit's mutable state: activity
// counters, every Prob-BTB entry with its SwapTable values and
// in-flight queue (in canonical key order — which row an entry occupies
// must not leak into the encoding), and the Context-Table. Configuration
// and the allocation-recycling pools (handed, freeVals) are not state:
// pools only affect storage reuse, never behavior.
func (u *Unit) CheckpointState(w *ckpt.Writer) error {
	w.Counters(&u.stats)

	rows := make([]*slot, 0, u.live)
	for i := range u.slots {
		if u.slots[i].valid {
			rows = append(rows, &u.slots[i])
		}
	}
	slices.SortFunc(rows, func(a, b *slot) int {
		switch {
		case keyLess(a.key, b.key):
			return -1
		case keyLess(b.key, a.key):
			return 1
		}
		return 0
	})
	w.Uint(uint64(len(rows)))
	for _, row := range rows {
		k, e := row.key, &row.e
		w.Int(int64(k.pc))
		w.Uint(uint64(k.loopBit))
		w.Int(int64(k.funcPC))
		w.Uint(e.gen)
		w.U64(e.constVal)
		w.Bool(e.constSet)
		w.Uint(uint64(len(e.queue)))
		for _, rec := range e.queue {
			w.Bool(rec.taken)
			w.Uint64s(rec.vals)
		}
	}

	if u.ctx == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	t := u.ctx
	w.Uint(uint64(len(t.loops)))
	for i := range t.loops {
		l := &t.loops[i]
		w.Bool(l.valid)
		w.Int(int64(l.loopPC))
		w.Int(int64(l.lastPC))
		w.Int(int64(l.funcPC))
		w.Int(int64(l.counter))
		w.Uint(l.gen)
	}
	w.Int(int64(t.active))
	w.Uint(t.nextGen)
	return nil
}

// RestoreState reads the field sequence written by CheckpointState into
// a unit built with the same configuration. The table is rebuilt from
// scratch and the recycling pools cleared, so restoring onto a used
// unit is equivalent to restoring onto a fresh one.
func (u *Unit) RestoreState(r *ckpt.Reader) error {
	r.Counters(&u.stats)

	u.slots = make([]slot, u.cfg.Branches)
	u.live = 0
	u.handed = nil
	u.freeVals = nil
	nentries := r.Uint()
	if r.Err() == nil && nentries > uint64(len(u.slots)) {
		return fmt.Errorf("core: checkpoint has %d table entries, unit has %d rows", nentries, len(u.slots))
	}
	for i := uint64(0); i < nentries && r.Err() == nil; i++ {
		k := btbKey{
			pc:      int(r.Int()),
			loopBit: uint8(r.Uint()),
			funcPC:  int32(r.Int()),
		}
		e := entry{
			gen:      r.Uint(),
			constVal: r.U64(),
			constSet: r.Bool(),
		}
		nq := r.Uint()
		if r.Err() == nil && nq > uint64(r.Len()) {
			return fmt.Errorf("core: checkpoint entry claims %d queued records with %d bytes left", nq, r.Len())
		}
		for j := uint64(0); j < nq && r.Err() == nil; j++ {
			e.queue = append(e.queue, record{taken: r.Bool(), vals: r.Uint64s()})
		}
		if r.Err() != nil {
			break
		}
		if i > 0 && !keyLess(u.slots[i-1].key, k) {
			return fmt.Errorf("core: checkpoint table entry for pc=%d is duplicated or out of order", k.pc)
		}
		u.slots[i] = slot{valid: true, key: k, e: e}
		u.live++
	}

	hasCtx := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasCtx != (u.ctx != nil) {
		return fmt.Errorf("core: checkpoint context-tracking %v does not match unit configuration %v", hasCtx, u.ctx != nil)
	}
	if u.ctx == nil {
		return r.Err()
	}
	t := u.ctx
	nloops := r.Uint()
	if r.Err() == nil && nloops != uint64(len(t.loops)) {
		return fmt.Errorf("core: checkpoint has %d context loops, unit is configured for %d", nloops, len(t.loops))
	}
	for i := range t.loops {
		t.loops[i] = loopEntry{
			valid:   r.Bool(),
			loopPC:  int(r.Int()),
			lastPC:  int(r.Int()),
			funcPC:  int(r.Int()),
			counter: int(r.Int()),
			gen:     r.Uint(),
		}
	}
	t.active = int(r.Int())
	t.nextGen = r.Uint()
	if r.Err() == nil && (t.active < -1 || t.active >= len(t.loops)) {
		return fmt.Errorf("core: checkpoint active loop index %d out of range", t.active)
	}
	return r.Err()
}
