package core

// ActiveLoopPC returns the Loop-PC of the active loop, or -1 when no loop
// is active.
func (t *ContextTracker) ActiveLoopPC() int {
	if t.active < 0 {
		return -1
	}
	return t.loops[t.active].loopPC
}

// LiveLoops returns the number of valid Context-Table entries.
func (t *ContextTracker) LiveLoops() int {
	n := 0
	for i := range t.loops {
		if t.loops[i].valid {
			n++
		}
	}
	return n
}

// LiveBranches returns the number of currently tracked branches.
func (u *Unit) LiveBranches() int { return u.live }

// ContextTracker returns the context tracker; nil when context support
// is disabled.
func (u *Unit) ContextTracker() *ContextTracker { return u.ctx }
