package core

import "fmt"

// Mode classifies how PBS handled one dynamic instance of a probabilistic
// branch.
type Mode uint8

const (
	// ModeRegular: PBS is not steering this instance — the branch is
	// treated as a regular branch (untrackable context, table capacity,
	// Const-Val violation, or too many values).
	ModeRegular Mode = iota
	// ModeBootstrap: the instance was recorded into the Prob-in-Flight
	// table but fetch had no stored direction yet, so the branch executed
	// with its natural outcome and was predicted like a regular branch
	// (§III-B initialization phase).
	ModeBootstrap
	// ModeSteered: fetch followed the direction stored in the Prob-BTB and
	// the control-dependent code consumed the recorded probabilistic
	// values; the instance can never mispredict.
	ModeSteered
)

func (m Mode) String() string {
	switch m {
	case ModeRegular:
		return "regular"
	case ModeBootstrap:
		return "bootstrap"
	case ModeSteered:
		return "steered"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Group describes one dynamic execution of a probabilistic branch group
// (a PROB_CMP plus its PROB_JMPs), assembled by the emulator.
type Group struct {
	// PC is the instruction index of the terminal PROB_JMP (PCprob).
	PC int
	// CmpVal is the raw value the probabilistic value was compared
	// against, used for the Const-Val correctness check of §IV.
	CmpVal uint64
	// Outcome is the branch outcome computed from the newly generated
	// probabilistic values.
	Outcome bool
	// Vals are the newly generated probabilistic values, first the
	// PROB_CMP register then each PROB_JMP register in program order.
	Vals []uint64
}

// Resolution is PBS's answer for one dynamic branch instance.
type Resolution struct {
	Mode Mode
	// Taken is the direction the branch follows. For ModeSteered it is the
	// recorded direction; otherwise the natural outcome.
	Taken bool
	// Vals are the probabilistic values the control-dependent code must
	// observe. For ModeSteered they are the recorded values matching
	// Taken; otherwise the new values unchanged. The slice is only valid
	// until the next Resolve call on the same unit: steered-mode storage
	// is recycled into the next recorded instance so the steady state
	// allocates nothing (consume or copy it immediately, as the emulator
	// does).
	Vals []uint64
}

// Stats aggregates PBS activity counters.
type Stats struct {
	Resolutions     uint64 // dynamic probabilistic branch instances seen
	Steered         uint64 // instances steered by the Prob-BTB
	Bootstrap       uint64 // instances recorded during initialization
	Regular         uint64 // instances executed as regular branches
	ConstViolations uint64 // Const-Val mismatches (entry flushed, §V-C1)
	CapacityMisses  uint64 // instances rejected because the Prob-BTB was full
	ValueOverflows  uint64 // instances with more values than provisioned
	UntrackableCtx  uint64 // instances at call depth > 1 (§V-C1)
	Allocations     uint64 // Prob-BTB entry allocations
	ContextClears   uint64 // entries flushed by loop termination/eviction
	MaxLiveBranches int    // high-water mark of simultaneously tracked branches
}

// record is one Prob-in-Flight row pair (outcome + values).
type record struct {
	taken bool
	vals  []uint64
}

// entry is one Prob-BTB row with its SwapTable values and in-flight queue.
type entry struct {
	gen      uint64 // owning loop generation (0 = outside any loop)
	constVal uint64
	constSet bool
	// queue holds the recorded instances not yet consumed by a fetch: the
	// Prob-in-Flight contents plus the Prob-BTB head. Fetch of instance i
	// consumes the record produced by instance i-len(queue).
	queue []record
}

type btbKey struct {
	pc      int
	loopBit uint8
	funcPC  int32
}

// slot is one Prob-BTB row: a valid bit, the (pc, context) key it is
// tagged with, and its entry. A freed row keeps its queue's backing
// storage for the next allocation into it.
type slot struct {
	valid bool
	key   btbKey
	e     entry
}

// Unit is the PBS hardware unit.
type Unit struct {
	cfg   Config
	ctx   *ContextTracker
	slots []slot // the Prob-BTB: cfg.Branches rows, searched in order
	live  int    // valid rows
	stats Stats

	// handed is the value slice returned by the previous steered
	// Resolution. Its contract expires at the next Resolve call, which
	// reclaims it as storage for the newly recorded instance — the
	// steady-state swap cycle therefore allocates nothing.
	handed []uint64

	// freeVals recycles record storage released by generation clears
	// and Const-Val flushes, so workloads that churn the Prob-BTB (loop
	// contexts ending and restarting) also run allocation-free after
	// warm-up.
	freeVals [][]uint64
}

// NewUnit builds a PBS unit for the given configuration.
func NewUnit(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{
		cfg:   cfg,
		slots: make([]slot, cfg.Branches),
	}
	if cfg.EnableContext {
		u.ctx = newContextTracker(cfg.ContextLoops, u.clearGen)
	}
	return u, nil
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns a snapshot of the activity counters.
func (u *Unit) Stats() Stats { return u.stats }

// recycleRecords returns an entry's record storage to the value pool and
// truncates its queue.
func (u *Unit) recycleRecords(e *entry) {
	for i := range e.queue {
		if v := e.queue[i].vals; v != nil {
			u.freeVals = append(u.freeVals, v)
			e.queue[i].vals = nil
		}
	}
	e.queue = e.queue[:0]
}

// newVals returns value storage for one record holding a copy of src,
// recycled when possible: first from the slice handed out by the previous
// steered Resolution (whose validity window has closed), then from the
// flush pool, and only then from the allocator.
func (u *Unit) newVals(src []uint64) []uint64 {
	if v := u.handed; v != nil {
		u.handed = nil
		return append(v[:0], src...)
	}
	if n := len(u.freeVals); n > 0 {
		v := u.freeVals[n-1]
		u.freeVals = u.freeVals[:n-1]
		return append(v[:0], src...)
	}
	return append([]uint64(nil), src...)
}

// free invalidates a Prob-BTB row, recycling its record storage.
func (u *Unit) free(s *slot) {
	u.recycleRecords(&s.e)
	s.valid = false
	u.live--
	u.stats.ContextClears++
}

// clearGen flushes every probabilistic table entry owned by a terminated
// or evicted loop generation, reclaiming the table capacity (§V-C1).
func (u *Unit) clearGen(gen uint64) {
	for i := range u.slots {
		if s := &u.slots[i]; s.valid && s.e.gen == gen {
			u.free(s)
		}
	}
}

// evictDead frees one Prob-BTB entry whose owning context is no longer
// live: its loop generation was terminated/evicted, or it was allocated
// outside any loop (generation 0) and execution has since entered a loop.
// This is the over-capacity replacement heuristic of §V-C2 — entries of
// stale contexts are the first to go. Among the dead entries the one
// with the smallest key goes first: the choice must not depend on which
// row an entry happens to occupy, or a unit rebuilt from a checkpoint
// (same entries, different insertion history) could diverge from the
// original run. Returns the freed row, nil if every entry is live.
func (u *Unit) evictDead() *slot {
	var victim *slot
	for i := range u.slots {
		s := &u.slots[i]
		if !s.valid || u.genLive(s.e.gen) {
			continue
		}
		if victim == nil || keyLess(s.key, victim.key) {
			victim = s
		}
	}
	if victim != nil {
		u.free(victim)
	}
	return victim
}

// keyLess orders Prob-BTB keys by (pc, loopBit, funcPC) — the canonical
// order used for deterministic eviction and checkpoint serialization.
func keyLess(a, b btbKey) bool {
	if a.pc != b.pc {
		return a.pc < b.pc
	}
	if a.loopBit != b.loopBit {
		return a.loopBit < b.loopBit
	}
	return a.funcPC < b.funcPC
}

// genLive reports whether the loop generation still identifies the current
// context: positive generations must be present in the Context-Table;
// generation 0 ("outside any loop") is live only while no loop is active.
func (u *Unit) genLive(gen uint64) bool {
	if u.ctx == nil {
		return true
	}
	if gen == 0 {
		return u.ctx.active < 0
	}
	for i := range u.ctx.loops {
		if u.ctx.loops[i].valid && u.ctx.loops[i].gen == gen {
			return true
		}
	}
	return false
}

// OnBranch must be called for every executed non-probabilistic control
// transfer with a static target so the Context-Table can detect loops.
func (u *Unit) OnBranch(pc, target int, taken bool) {
	if u.ctx != nil {
		u.ctx.OnBranch(pc, target, taken)
	}
}

// OnCall must be called for every executed CALL.
func (u *Unit) OnCall(pc int) {
	if u.ctx != nil {
		u.ctx.OnCall(pc)
	}
}

// OnRet must be called for every executed RET.
func (u *Unit) OnRet() {
	if u.ctx != nil {
		u.ctx.OnRet()
	}
}

// Resolve processes one dynamic probabilistic branch instance and decides
// how it executes. The emulator applies the returned direction and values.
func (u *Unit) Resolve(g Group) Resolution {
	u.stats.Resolutions++
	regular := Resolution{Mode: ModeRegular, Taken: g.Outcome, Vals: g.Vals}

	key := btbKey{pc: g.PC}
	var gen uint64
	if u.ctx != nil {
		ck, trackable := u.ctx.Context()
		if !trackable {
			u.stats.UntrackableCtx++
			u.stats.Regular++
			return regular
		}
		key.loopBit = ck.LoopBit
		key.funcPC = ck.FuncPC
		gen = ck.Gen
	}

	if len(g.Vals) > u.cfg.ValuesPerBranch {
		u.stats.ValueOverflows++
		u.stats.Regular++
		return regular
	}

	var e *entry
	var free *slot
	for i := range u.slots {
		s := &u.slots[i]
		if !s.valid {
			if free == nil {
				free = s
			}
		} else if s.key == key {
			e = &s.e
			break
		}
	}
	if e != nil && e.gen != gen {
		// The previous owner loop's entries were cleared but the same
		// static branch re-appeared under a new activation of the loop:
		// fresh context, fresh entry (the queue's backing storage is
		// recycled in place).
		u.recycleRecords(e)
		*e = entry{gen: gen, queue: e.queue}
	}
	if e == nil {
		if free == nil {
			if free = u.evictDead(); free == nil {
				u.stats.CapacityMisses++
				u.stats.Regular++
				return regular
			}
		}
		free.valid, free.key = true, key
		free.e = entry{gen: gen, queue: free.e.queue}
		e = &free.e
		u.live++
		u.stats.Allocations++
		if u.live > u.stats.MaxLiveBranches {
			u.stats.MaxLiveBranches = u.live
		}
	}

	// Const-Val correctness check (§IV, §V-C1): the comparison operand
	// must not change within a context. On mismatch the entry is flushed
	// and this instance executes as a regular branch; the next instance
	// re-registers with the new value.
	if e.constSet && e.constVal != g.CmpVal {
		u.stats.ConstViolations++
		u.stats.Regular++
		u.recycleRecords(e)
		*e = entry{gen: gen, constVal: g.CmpVal, constSet: true, queue: e.queue}
		return regular
	}
	if !e.constSet {
		e.constVal = g.CmpVal
		e.constSet = true
	}

	// Record the new instance in recycled storage (see newVals).
	newRec := record{taken: g.Outcome, vals: u.newVals(g.Vals)}
	if len(e.queue) < u.cfg.InFlight {
		// Initialization phase: record, execute naturally, predict like a
		// regular branch.
		e.queue = append(e.queue, newRec)
		u.stats.Bootstrap++
		return Resolution{Mode: ModeBootstrap, Taken: g.Outcome, Vals: g.Vals}
	}

	// Steady state: fetch followed the direction recorded by the instance
	// InFlight executions ago; its values are swapped in, and the new
	// outcome/values are pushed for a future instance.
	old := e.queue[0]
	copy(e.queue, e.queue[1:])
	e.queue[len(e.queue)-1] = newRec
	u.stats.Steered++
	u.handed = old.vals
	return Resolution{Mode: ModeSteered, Taken: old.taken, Vals: old.vals}
}
