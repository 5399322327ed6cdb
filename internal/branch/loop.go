package branch

// LoopPredictor captures branches with a fixed trip count: a bottom-test
// loop branch is taken T times and then not taken once per loop instance.
// After observing the same T twice it predicts the final not-taken
// iteration exactly. Used as a component of both the tournament predictor
// (Pentium-M's loop detector) and TAGE-SC-L's "L" part.
type LoopPredictor struct {
	entries []loopPredEntry
	mask    uint64
	tagMask uint64
}

type loopPredEntry struct {
	valid bool
	tag   uint16
	trip  uint16 // learned taken-run length
	cur   uint16 // taken count in the current instance
	conf  uint8  // 0..3
}

// loopMaxTrip bounds learnable trip counts (14-bit field).
const loopMaxTrip = 1<<14 - 1

// NewLoopPredictor builds a loop predictor with entries rows (power of
// two).
func NewLoopPredictor(entries int) *LoopPredictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: loop predictor entries must be a positive power of two")
	}
	return &LoopPredictor{
		entries: make([]loopPredEntry, entries),
		mask:    uint64(entries - 1),
		tagMask: 0xffff,
	}
}

func (l *LoopPredictor) row(pc uint64) (*loopPredEntry, uint16) {
	h := mix(pc)
	return &l.entries[h&l.mask], uint16((h >> 48) & l.tagMask)
}

// Lookup returns the predicted direction and whether the predictor is
// confident enough for its prediction to override other components.
func (l *LoopPredictor) Lookup(pc uint64) (pred, confident bool) {
	e, tag := l.row(pc)
	if !e.valid || e.tag != tag || e.conf < 2 || e.trip == 0 {
		return false, false
	}
	return e.cur < e.trip, true
}

// Update trains the predictor with a resolved branch.
func (l *LoopPredictor) Update(pc uint64, taken bool) {
	e, tag := l.row(pc)
	if !e.valid || e.tag != tag {
		// Allocate only on a not-taken outcome, which ends a potential
		// loop instance and lets counting start cleanly.
		if !taken {
			*e = loopPredEntry{valid: true, tag: tag}
		}
		return
	}
	if taken {
		if e.cur >= loopMaxTrip {
			*e = loopPredEntry{} // not a bounded loop; free the row
			return
		}
		e.cur++
		return
	}
	// Loop instance ended; the taken-run length was e.cur.
	if e.trip == e.cur && e.trip != 0 {
		e.conf = ctrInc(e.conf, 3)
	} else {
		e.trip = e.cur
		e.conf = 0
	}
	e.cur = 0
}

// SizeBits returns the storage cost: tag 16 + trip 14 + cur 14 + conf 2 +
// valid 1 per entry.
func (l *LoopPredictor) SizeBits() int { return len(l.entries) * (16 + 14 + 14 + 2 + 1) }

// reset sets the power-on state.
func (l *LoopPredictor) reset() {
	for i := range l.entries {
		l.entries[i] = loopPredEntry{}
	}
}
