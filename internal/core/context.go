package core

// ContextKey identifies the calling context of a probabilistic branch: the
// 1-bit index of the active innermost loop in the Context-Table and the PC
// of the function call (if any, depth one) through which the branch is
// reached (§V-C1). Gen is the loop-activation generation: hardware clears
// all table entries of a loop when it terminates, so a later execution of
// the same loop is a fresh context; the generation number gives the model
// the same effect.
type ContextKey struct {
	LoopBit uint8
	FuncPC  int32
	Gen     uint64
}

// loopEntry is one Context-Table row.
type loopEntry struct {
	valid   bool
	loopPC  int // PC of the first instruction of the loop (branch target)
	lastPC  int // highest backward-branch PC observed for this loop
	funcPC  int // PC of the function call made inside the loop body (0 = none)
	counter int // 3-bit function call depth counter
	gen     uint64
}

// ContextTracker implements the Context-Table: dynamic loop detection from
// backward branches (after Tubella & González), two innermost nesting
// levels, function-call tracking at depth one, and entry clearing on loop
// termination.
type ContextTracker struct {
	loops   []loopEntry
	active  int // index of the most recently activated loop, -1 if none
	nextGen uint64
	// onClear is invoked with the generation of every loop whose entries
	// must be flushed from the probabilistic tables.
	onClear func(gen uint64)

	// counterMax is the saturation point of the 3-bit depth counter.
	counterMax int
}

// newContextTracker returns a tracker with n Context-Table entries.
func newContextTracker(n int, onClear func(gen uint64)) *ContextTracker {
	return &ContextTracker{
		loops:      make([]loopEntry, n),
		active:     -1,
		nextGen:    1,
		onClear:    onClear,
		counterMax: 7,
	}
}

func (t *ContextTracker) clearEntry(i int) {
	if !t.loops[i].valid {
		return
	}
	gen := t.loops[i].gen
	t.loops[i] = loopEntry{}
	if t.active == i {
		t.active = -1
		// Fall back to the other valid loop, if any (the outer loop
		// becomes active again when an inner loop finishes).
		for j := range t.loops {
			if t.loops[j].valid {
				t.active = j
			}
		}
	}
	if t.onClear != nil {
		t.onClear(gen)
	}
}

// OnBranch informs the tracker of an executed branch. target is the
// absolute instruction index of the (taken or fall-through) destination of
// the branch's taken path; pc the branch's own index.
func (t *ContextTracker) OnBranch(pc, target int, taken bool) {
	if target >= pc {
		return // only backward branches participate in loop detection
	}
	if taken {
		// A taken backward branch either continues a known loop or
		// announces a new one.
		for i := range t.loops {
			e := &t.loops[i]
			if e.valid && e.loopPC == target {
				if pc > e.lastPC {
					e.lastPC = pc
				}
				t.active = i
				return
			}
		}
		t.allocate(pc, target)
		return
	}
	// A not-taken backward branch whose address is >= Last-PC terminates
	// the loop (§V-C1).
	for i := range t.loops {
		e := &t.loops[i]
		if e.valid && e.loopPC == target && pc >= e.lastPC {
			terminatedGen := e.gen
			t.clearEntry(i)
			// "If the older loop terminates before the newer one, both
			// loops are erased."
			for j := range t.loops {
				if t.loops[j].valid && t.loops[j].gen > terminatedGen {
					t.clearEntry(j)
				}
			}
			return
		}
	}
}

// allocate installs a newly detected loop, evicting the oldest entry when
// the table is full.
func (t *ContextTracker) allocate(pc, target int) {
	slot := -1
	for i := range t.loops {
		if !t.loops[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		oldest := 0
		for i := range t.loops {
			if t.loops[i].gen < t.loops[oldest].gen {
				oldest = i
			}
		}
		t.clearEntry(oldest)
		slot = oldest
	}
	t.loops[slot] = loopEntry{
		valid:  true,
		loopPC: target,
		lastPC: pc,
		gen:    t.nextGen,
	}
	t.nextGen++
	t.active = slot
}

// OnCall informs the tracker of an executed function call at pc.
func (t *ContextTracker) OnCall(pc int) {
	if t.active < 0 {
		return
	}
	e := &t.loops[t.active]
	if e.counter < t.counterMax {
		e.counter++
	}
	if e.counter == 1 {
		e.funcPC = pc
	}
}

// OnRet informs the tracker of an executed function return.
func (t *ContextTracker) OnRet() {
	if t.active < 0 {
		return
	}
	e := &t.loops[t.active]
	if e.counter > 0 {
		e.counter--
	}
	if e.counter == 0 {
		e.funcPC = 0
	}
}

// Context returns the current calling-context key and whether probabilistic
// branches are trackable right now. PBS tracks branches only when the call
// depth inside the active loop is 0 (directly in the loop body) or 1
// (inside a function called from the loop body); deeper calls make every
// branch a regular branch until the inner functions return (§V-C1).
// Outside any detected loop, branches are tracked by PC alone (zero
// context).
func (t *ContextTracker) Context() (ContextKey, bool) {
	if t.active < 0 {
		return ContextKey{}, true
	}
	e := &t.loops[t.active]
	if e.counter > 1 {
		return ContextKey{}, false
	}
	return ContextKey{
		LoopBit: uint8(t.active & 1),
		FuncPC:  int32(e.funcPC),
		Gen:     e.gen,
	}, true
}
