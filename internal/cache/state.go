package cache

import (
	"fmt"

	"repro/internal/ckpt"
)

// CheckpointState serializes the cache contents: the touched granules
// in index order, then the global clock. Geometry is configuration,
// rebuilt by New. Only touched granules are written, and within one
// every way costs a varint: 0 for an invalid way (its LRU clock is never
// read), otherwise the tag plus one and the way's LRU clock — so a
// checkpoint grows with the lines a run has filled, not with the
// cache's capacity, and does not depend on the order in which the
// granules were touched.
func (c *Cache) CheckpointState(w *ckpt.Writer) error {
	n := 0
	for _, off := range c.index {
		if off != 0 {
			n++
		}
	}
	w.Uint(uint64(n))
	gw := c.granuleWords()
	for g, off := range c.index {
		if off == 0 {
			continue
		}
		w.Uint(uint64(g))
		ch := c.words[off-1 : int(off)-1+gw]
		for base := 0; base < len(ch); base += 2 * c.ways {
			for k := 0; k < c.ways; k++ {
				tag := ch[base+k]
				if tag&validBit == 0 {
					w.Uint(0)
					continue
				}
				w.Uint(tag&^validBit + 1)
				w.Uint(ch[base+c.ways+k])
			}
		}
	}
	w.Uint(c.clock)
	return nil
}

// RestoreState reads the field sequence written by CheckpointState into
// a cache of the same geometry, replacing its contents: granules the
// checkpoint does not list are dropped.
func (c *Cache) RestoreState(r *ckpt.Reader) error {
	clear(c.index)
	c.words = c.words[:0]
	n := r.Uint()
	if r.Err() == nil && n > uint64(len(c.index)) {
		return fmt.Errorf("cache: checkpoint has %d granules, cache has %d", n, len(c.index))
	}
	next := uint64(0) // granule indices are strictly increasing
	for j := uint64(0); j < n && r.Err() == nil; j++ {
		g := r.Uint()
		if r.Err() != nil {
			break
		}
		if g < next || g >= uint64(len(c.index)) {
			return fmt.Errorf("cache: checkpoint granule index %d out of order or beyond %d granules", g, len(c.index))
		}
		next = g + 1
		off := c.alloc(g)
		ch := c.words[off-1:]
		for base := 0; base < len(ch); base += 2 * c.ways {
			for k := 0; k < c.ways; k++ {
				v := r.Uint()
				if v == 0 {
					continue
				}
				if v-1 >= validBit {
					return fmt.Errorf("cache: checkpoint tag %#x out of range", v-1)
				}
				ch[base+k] = (v - 1) | validBit
				ch[base+c.ways+k] = r.Uint()
			}
		}
	}
	c.clock = r.Uint()
	return r.Err()
}

// CheckpointState serializes all three levels in fixed order.
func (h *Hierarchy) CheckpointState(w *ckpt.Writer) error {
	if err := h.L1I.CheckpointState(w); err != nil {
		return err
	}
	if err := h.L1D.CheckpointState(w); err != nil {
		return err
	}
	return h.L2.CheckpointState(w)
}

// RestoreState reads all three levels in fixed order.
func (h *Hierarchy) RestoreState(r *ckpt.Reader) error {
	if err := h.L1I.RestoreState(r); err != nil {
		return err
	}
	if err := h.L1D.RestoreState(r); err != nil {
		return err
	}
	return h.L2.RestoreState(r)
}
