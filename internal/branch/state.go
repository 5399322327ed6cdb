package branch

import (
	"fmt"

	"repro/internal/ckpt"
)

// This file implements the ckpt.Checkpointable protocol for every
// predictor in the table. Only mutable prediction state is serialized —
// table geometry is configuration the factory rebuilds — and the
// scratch carried from Predict to Update (TAGESCL.p and its index
// buffers, Tournament.last*) is deliberately excluded: the simulator
// calls Predict/Update in strict pairs within one retired branch, so
// that scratch is dead at every point a checkpoint can be taken, and a
// restored predictor overwrites it on the next Predict exactly like the
// uninterrupted one would.

func counters8(w *ckpt.Writer, ctrs []uint8) {
	w.Bytes(ctrs)
}

func restoreCounters8(r *ckpt.Reader, ctrs []uint8, what string) error {
	got := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	if len(got) != len(ctrs) {
		return fmt.Errorf("branch: checkpoint %s table has %d entries, predictor has %d", what, len(got), len(ctrs))
	}
	copy(ctrs, got)
	return nil
}

func restoreCountersS8(r *ckpt.Reader, ctrs []int8, what string) error {
	got := r.Int8s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(got) != len(ctrs) {
		return fmt.Errorf("branch: checkpoint %s table has %d entries, predictor has %d", what, len(got), len(ctrs))
	}
	copy(ctrs, got)
	return nil
}

// CheckpointState implements ckpt.Checkpointable.
func (b *Bimodal) CheckpointState(w *ckpt.Writer) error {
	counters8(w, b.ctrs)
	return nil
}

// RestoreState implements ckpt.Checkpointable.
func (b *Bimodal) RestoreState(r *ckpt.Reader) error {
	return restoreCounters8(r, b.ctrs, "bimodal")
}

// CheckpointState implements ckpt.Checkpointable.
func (g *GShare) CheckpointState(w *ckpt.Writer) error {
	counters8(w, g.ctrs)
	w.Uint(g.hist)
	return nil
}

// RestoreState implements ckpt.Checkpointable.
func (g *GShare) RestoreState(r *ckpt.Reader) error {
	if err := restoreCounters8(r, g.ctrs, "gshare"); err != nil {
		return err
	}
	g.hist = r.Uint()
	return r.Err()
}

// CheckpointState implements ckpt.Checkpointable.
func (l *LoopPredictor) CheckpointState(w *ckpt.Writer) error {
	w.Uint(uint64(len(l.entries)))
	for i := range l.entries {
		e := &l.entries[i]
		w.Bool(e.valid)
		w.Uint(uint64(e.tag))
		w.Uint(uint64(e.trip))
		w.Uint(uint64(e.cur))
		w.Uint(uint64(e.conf))
	}
	return nil
}

// RestoreState implements ckpt.Checkpointable.
func (l *LoopPredictor) RestoreState(r *ckpt.Reader) error {
	n := r.Uint()
	if r.Err() == nil && n != uint64(len(l.entries)) {
		return fmt.Errorf("branch: checkpoint loop table has %d entries, predictor has %d", n, len(l.entries))
	}
	for i := range l.entries {
		l.entries[i] = loopPredEntry{
			valid: r.Bool(),
			tag:   uint16(r.Uint()),
			trip:  uint16(r.Uint()),
			cur:   uint16(r.Uint()),
			conf:  uint8(r.Uint()),
		}
	}
	return r.Err()
}

// CheckpointState implements ckpt.Checkpointable.
func (t *Tournament) CheckpointState(w *ckpt.Writer) error {
	if err := t.bimodal.CheckpointState(w); err != nil {
		return err
	}
	if err := t.gshare.CheckpointState(w); err != nil {
		return err
	}
	if err := t.loop.CheckpointState(w); err != nil {
		return err
	}
	counters8(w, t.chooser)
	return nil
}

// RestoreState implements ckpt.Checkpointable.
func (t *Tournament) RestoreState(r *ckpt.Reader) error {
	if err := t.bimodal.RestoreState(r); err != nil {
		return err
	}
	if err := t.gshare.RestoreState(r); err != nil {
		return err
	}
	if err := t.loop.RestoreState(r); err != nil {
		return err
	}
	return restoreCounters8(r, t.chooser, "chooser")
}

// CheckpointState implements ckpt.Checkpointable.
func (t *TAGESCL) CheckpointState(w *ckpt.Writer) error {
	counters8(w, t.base[:])
	w.Uint(uint64(len(t.tables)))
	for k := range t.tables {
		tb := &t.tables[k]
		w.Uint(uint64(len(tb.entries)))
		for i := range tb.entries {
			e := &tb.entries[i]
			w.Uint(uint64(e.tag))
			w.Int(int64(e.ctr))
			w.Uint(uint64(e.u))
		}
		w.Uint(uint64(tb.idxFold.comp))
		w.Uint(uint64(tb.tagFold1.comp))
		w.Uint(uint64(tb.tagFold2.comp))
	}
	w.Bytes(t.hist.bits[:])
	w.Uint(uint64(t.hist.ptr))
	if err := t.loop.CheckpointState(w); err != nil {
		return err
	}
	w.Int8s(t.scBias[:])
	w.Uint(uint64(len(t.scTables)))
	for k := range t.scTables {
		w.Int8s(t.scTables[k][:])
	}
	w.Uint(uint64(len(t.scFolds)))
	for i := range t.scFolds {
		w.Uint(uint64(t.scFolds[i].comp))
	}
	w.Int(int64(t.scThresh))
	w.Int(int64(t.scThreshC))
	w.Int(int64(t.useAltOnNA))
	w.Uint(uint64(t.tick))
	w.Uint(uint64(t.lfsr))
	return nil
}

// RestoreState implements ckpt.Checkpointable.
func (t *TAGESCL) RestoreState(r *ckpt.Reader) error {
	if err := restoreCounters8(r, t.base[:], "tage base"); err != nil {
		return err
	}
	ntables := r.Uint()
	if r.Err() == nil && ntables != uint64(len(t.tables)) {
		return fmt.Errorf("branch: checkpoint has %d tage tables, predictor has %d", ntables, len(t.tables))
	}
	for k := range t.tables {
		tb := &t.tables[k]
		n := r.Uint()
		if r.Err() == nil && n != uint64(len(tb.entries)) {
			return fmt.Errorf("branch: checkpoint tage table has %d entries, predictor has %d", n, len(tb.entries))
		}
		for i := range tb.entries {
			tb.entries[i] = tageEntry{
				tag: uint16(r.Uint()),
				ctr: int8(r.Int()),
				u:   uint8(r.Uint()),
			}
		}
		tb.idxFold.comp = uint32(r.Uint())
		tb.tagFold1.comp = uint32(r.Uint())
		tb.tagFold2.comp = uint32(r.Uint())
	}
	hist := r.Bytes()
	if r.Err() == nil && len(hist) != len(t.hist.bits) {
		return fmt.Errorf("branch: checkpoint history buffer has %d bits, predictor has %d", len(hist), len(t.hist.bits))
	}
	copy(t.hist.bits[:], hist)
	t.hist.ptr = uint32(r.Uint())
	if err := t.loop.RestoreState(r); err != nil {
		return err
	}
	if err := restoreCountersS8(r, t.scBias[:], "sc bias"); err != nil {
		return err
	}
	nsc := r.Uint()
	if r.Err() == nil && nsc != uint64(len(t.scTables)) {
		return fmt.Errorf("branch: checkpoint has %d sc tables, predictor has %d", nsc, len(t.scTables))
	}
	for k := range t.scTables {
		if err := restoreCountersS8(r, t.scTables[k][:], "sc"); err != nil {
			return err
		}
	}
	nfolds := r.Uint()
	if r.Err() == nil && nfolds != uint64(len(t.scFolds)) {
		return fmt.Errorf("branch: checkpoint has %d sc folds, predictor has %d", nfolds, len(t.scFolds))
	}
	for i := range t.scFolds {
		t.scFolds[i].comp = uint32(r.Uint())
	}
	t.scThresh = int32(r.Int())
	t.scThreshC = int8(r.Int())
	t.useAltOnNA = int8(r.Int())
	t.tick = uint32(r.Uint())
	t.lfsr = uint32(r.Uint())
	return r.Err()
}

// CheckpointState implements ckpt.Checkpointable: stateless.
func (AlwaysTaken) CheckpointState(*ckpt.Writer) error { return nil }

// RestoreState implements ckpt.Checkpointable: stateless.
func (AlwaysTaken) RestoreState(r *ckpt.Reader) error { return r.Err() }

// CheckpointState implements ckpt.Checkpointable: stateless.
func (NeverTaken) CheckpointState(*ckpt.Writer) error { return nil }

// RestoreState implements ckpt.Checkpointable: stateless.
func (NeverTaken) RestoreState(r *ckpt.Reader) error { return r.Err() }
