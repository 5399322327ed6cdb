// Package pipeline is the trace-driven out-of-order timing model of the
// reproduction. It consumes the retired-instruction stream of the
// functional emulator batch-wise through emu.TraceSink (attach it with
// emu.CPU.SetTraceSink) and computes cycle timing for an aggressive
// superscalar core: fetch bandwidth with one taken branch per cycle,
// front-end depth, ROB occupancy, register dataflow, functional unit
// pools, a two-level cache hierarchy, and the 10-cycle front-end refill
// penalty on branch mispredictions (§VI-B).
//
// All static per-instruction properties — functional unit class, latency,
// occupancy, source/destination register sets, branch kind — come from
// the program's predecoded execution plan (internal/plan), so the retire
// path recomputes nothing that does not change between dynamic instances.
//
// Probabilistic branches steered by PBS never consult the predictor and
// never pay the penalty; bootstrap and regular-mode probabilistic branches
// are predicted like ordinary branches. The FilterProb mode implements the
// negative-interference experiment of §VII-C.
package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/plan"
)

// Config fixes the core microarchitecture.
type Config struct {
	Width             int // fetch/issue/commit width
	ROBSize           int
	FrontendDepth     int // cycles between fetch and earliest issue
	MispredictPenalty int // front-end refill cycles after branch resolution

	IntALUs     int
	FPUs        int
	MemPorts    int
	BranchUnits int

	L1I, L1D, L2 cache.Config
	MemLatency   int

	// FilterProb removes probabilistic branches from predictor access and
	// update (the Fig 9 interference experiment). Their mispredictions are
	// neither counted nor penalised; regular-branch MPKI is the metric.
	FilterProb bool

	// PerfectBranches models an oracle front end: no branch ever
	// mispredicts. An upper-bound ablation, not a realistic configuration.
	PerfectBranches bool

	// ResolutionPenalty selects how a misprediction's cost is charged.
	// False (default) reproduces the mechanistic accounting of the
	// paper's simulator (Sniper): fetch restarts MispredictPenalty cycles
	// after the branch leaves the front end, modelling the squash +
	// re-fill without charging the branch's full operand-dependence
	// resolution time. True charges the honest dataflow cost: fetch
	// restarts MispredictPenalty cycles after the branch actually
	// executes, however deep its operand chain. The second model makes
	// eliminating probabilistic branches — whose operands sit at the end
	// of long random-value chains — even more valuable; it is measured as
	// an ablation by BenchmarkResolutionPenalty in the module root's
	// bench_test.go.
	ResolutionPenalty bool
}

// FourWide is the paper's baseline core: 4-wide out-of-order, 168-entry
// ROB (Sandy Bridge-like), 10-cycle misprediction penalty.
func FourWide() Config {
	return Config{
		Width:             4,
		ROBSize:           168,
		FrontendDepth:     6,
		MispredictPenalty: 10,
		IntALUs:           4,
		FPUs:              2,
		MemPorts:          2,
		BranchUnits:       1,
		L1I:               cache.L1I32K(),
		L1D:               cache.L1D32K(),
		L2:                cache.L2Unified2M(),
		MemLatency:        100,
	}
}

// EightWide is the wider core of Fig 8: 8-wide, 256-entry ROB.
func EightWide() Config {
	c := FourWide()
	c.Width = 8
	c.ROBSize = 256
	c.IntALUs = 8
	c.FPUs = 4
	c.MemPorts = 4
	c.BranchUnits = 2
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Width < 1:
		return fmt.Errorf("pipeline: Width must be >= 1")
	case c.ROBSize < c.Width:
		return fmt.Errorf("pipeline: ROBSize %d smaller than Width %d", c.ROBSize, c.Width)
	case c.IntALUs < 1 || c.FPUs < 1 || c.MemPorts < 1 || c.BranchUnits < 1:
		return fmt.Errorf("pipeline: all functional unit counts must be >= 1")
	case c.MispredictPenalty < 0 || c.FrontendDepth < 0:
		return fmt.Errorf("pipeline: negative pipeline depths")
	}
	return nil
}

// SameEvents reports whether pipelines built from c and o see the same
// miss events (see Events) for the same trace and predictor: they agree
// on the caches, the memory latency, predictor filtering and the oracle
// front end, and may differ in width, ROB size, functional units,
// front-end depth and the misprediction penalty and its model.
func (c Config) SameEvents(o Config) bool {
	return c.L1I == o.L1I && c.L1D == o.L1D && c.L2 == o.L2 && c.MemLatency == o.MemLatency &&
		c.FilterProb == o.FilterProb && c.PerfectBranches == o.PerfectBranches
}

// Metrics aggregates timing and branch statistics for one run.
type Metrics struct {
	Instructions uint64
	Cycles       uint64

	Branches     uint64 // all control transfers
	CondBranches uint64 // conditional branches (incl. probabilistic)
	ProbBranches uint64 // dynamic probabilistic (terminal PROB_JMP) branches
	ProbSteered  uint64
	ProbBoot     uint64
	ProbRegular  uint64

	Mispredicts     uint64 // total counted mispredictions
	MispredictsProb uint64 // from probabilistic branches
	MispredictsReg  uint64 // from regular branches

	L1IMisses, L1DMisses, L2Misses uint64
	L1IAccesses, L1DAccesses       uint64
}

// Delta returns the change from prev to m: every counter is m's value
// minus prev's. prev must be an earlier sample of the same pipeline, so
// counters never decrease. Interval rates fall out directly: the IPC
// over a window is cur.Delta(base).IPC().
func (m Metrics) Delta(prev Metrics) Metrics {
	m.Instructions -= prev.Instructions
	m.Cycles -= prev.Cycles
	m.Branches -= prev.Branches
	m.CondBranches -= prev.CondBranches
	m.ProbBranches -= prev.ProbBranches
	m.ProbSteered -= prev.ProbSteered
	m.ProbBoot -= prev.ProbBoot
	m.ProbRegular -= prev.ProbRegular
	m.Mispredicts -= prev.Mispredicts
	m.MispredictsProb -= prev.MispredictsProb
	m.MispredictsReg -= prev.MispredictsReg
	m.L1IMisses -= prev.L1IMisses
	m.L1DMisses -= prev.L1DMisses
	m.L2Misses -= prev.L2Misses
	m.L1IAccesses -= prev.L1IAccesses
	m.L1DAccesses -= prev.L1DAccesses
	return m
}

// IPC returns retired instructions per cycle.
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// CPI returns cycles per retired instruction (0 before any retire).
func (m Metrics) CPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instructions)
}

// MPKI returns mispredictions per 1000 instructions.
func (m Metrics) MPKI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Instructions)
}

// MPKIProb returns probabilistic-branch mispredictions per 1000
// instructions.
func (m Metrics) MPKIProb() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.MispredictsProb) / float64(m.Instructions)
}

// MPKIReg returns regular-branch mispredictions per 1000 instructions.
func (m Metrics) MPKIReg() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.MispredictsReg) / float64(m.Instructions)
}

// SteerRate returns the fraction of dynamic probabilistic branches the
// Prob-BTB steered (0 when none executed).
func (m Metrics) SteerRate() float64 {
	if m.ProbBranches == 0 {
		return 0
	}
	return float64(m.ProbSteered) / float64(m.ProbBranches)
}

// fuRingMin is the initial size, in cycles, of a functional-unit
// class's time ring: 32 one-word cells, 256 B. A ring doubles whenever
// a live cell would be overwritten, so it only grows past this for runs
// whose in-flight schedule spans more cycles. Over the eight workloads'
// first 300k instructions, PI's and MC-integ's rings end at 8 to 64
// cells, while the divide-bound DOP, Greeks, Swaptions and Photon grow
// their ALU, FP, FP-divide and branch rings to 256 cells (512 on the
// 8-wide core). A released pipeline keeps its grown rings (see
// Release), so the pipelines a process builds one after another learn
// those sizes once.
const fuRingMin = 1 << 5

// fuSched models functional-unit contention with backfill, the way an
// out-of-order scheduler fills idle issue slots: for every cycle and unit
// class it counts operations in flight, and an operation issues at the
// first cycle >= its ready time with a free unit for its whole occupancy.
// A plain per-unit next-free-time reservation would serialise issue in
// program order — an op stalled on operands would block younger,
// already-ready ops from slots the hardware would happily give them.
//
// Each class counts in its own time ring indexed by cycle. A cell is
// live when its cycle is at or after the current fetch cycle (the floor
// every schedule call passes as now; no later call probes below it) and
// its count is not zero. Every live cycle sits in its own slot: a ring
// doubles rather than overwrite a live cell, so a probe that finds
// another cycle's tag in a slot knows its own cycle is empty, for any
// span of in-flight cycles. (One ring whose cells carry all eight
// classes' counts is as small, but successive operations of different
// classes then read and write the same cell, and scheduling measured
// about half again as slow.)
//
// Every class the program's plan uses (plan.Plan.FUs) has a ring, and
// the schedule pass indexes a class's ring with no check that it
// exists. Another class gets none: no instruction of it is ever
// scheduled, so its ring would be storage no probe reads. It keeps one
// a recycled pipeline grew for an earlier program, empty.
type fuSched struct {
	units [plan.NumFUClasses]uint8
	rings [plan.NumFUClasses][]fuCell // power-of-two lengths; nil for a class without one
}

// fuCell packs one time-ring cell as cycle<<8 | count: cycles stay below
// 2^56 for any feasible run, counts below the 8-bit unit cap. One word
// per cell keeps a ring's hot region in cache.
type fuCell uint64

func (c fuCell) cycle() uint64        { return uint64(c) >> 8 }
func (c fuCell) count() uint8         { return uint8(c) }
func (c fuCell) live(now uint64) bool { return c.cycle() >= now && c.count() != 0 }

// reset empties every ring for a program that uses the classes in
// used, keeping each ring's size; a class in used that has no ring gets
// one of fuRingMin cycles.
func (s *fuSched) reset(units [plan.NumFUClasses]uint8, used plan.FUSet) {
	s.units = units
	for class, ring := range s.rings {
		switch {
		case ring != nil:
			clear(ring)
		case used.Has(plan.FUClass(class)):
			s.rings[class] = make([]fuCell, fuRingMin)
		}
	}
}

// schedule returns the issue cycle for an operation of the given class,
// which must have a ring, that becomes ready at `ready` (>= now) and
// occupies its unit for occ cycles; now is the current fetch cycle. The
// schedule pass schedules fully pipelined operations (occ == 1, the
// vast majority) inline and calls this only for multi-cycle ones; it is
// exact for any occ.
func (s *fuSched) schedule(class plan.FUClass, ready, occ, now uint64) uint64 {
	units := s.units[class]
	for t := ready; ; t++ {
		ring := s.rings[class]
		ok := true
		for k := uint64(0); k < occ; k++ {
			c := ring[(t+k)&uint64(len(ring)-1)]
			if c.cycle() == t+k && c.count() >= units {
				ok = false
				t += k // skip past the congested cycle
				break
			}
		}
		if !ok {
			continue
		}
		for k := uint64(0); k < occ; k++ {
			c := s.slot(class, t+k, now)
			if c.cycle() != t+k {
				*c = fuCell((t + k) << 8)
			}
			*c++
		}
		return t
	}
}

// slot returns the cell that holds, or will hold, cycle t in class's
// ring, growing the ring first if a live cell of another cycle is there.
func (s *fuSched) slot(class plan.FUClass, t, now uint64) *fuCell {
	ring := s.rings[class]
	c := &ring[t&uint64(len(ring)-1)]
	if c.cycle() != t && c.live(now) {
		c = s.claim(class, t, now)
	}
	return c
}

// claim returns the slot for cycle t in class's ring after doubling the
// ring until no live cell of another cycle occupies it. Live cells keep
// distinct slots under every doubling (distinct residues stay
// distinct); dead cells are dropped.
func (s *fuSched) claim(class plan.FUClass, t, now uint64) *fuCell {
	for {
		old := s.rings[class]
		ring := make([]fuCell, 2*len(old))
		mask := uint64(len(ring) - 1)
		for _, c := range old {
			if c.live(now) {
				ring[c.cycle()&mask] = c
			}
		}
		s.rings[class] = ring
		if c := &ring[t&mask]; !c.live(now) {
			return c
		}
	}
}

// event is one instruction's miss events, the byte the event pass hands
// the schedule: the cache level that served its fetch (bits 0-1), the
// level that served its data access (bits 2-3) and a misprediction (bit
// 4). An access inside a line streak (see Record), and a data side the
// instruction does not have, read as cache.LevelL1.
type event uint8

const (
	evDataShift        = 2
	evMispredict event = 1 << 4
)

// Events is the miss-event stage of the timing model: the branch
// predictor, the cache hierarchy, the L1I and L1D line-streak registers
// and every Metrics counter the trace alone determines, which is all of
// them but Instructions and Cycles. The caches and the predictor are
// accessed in program order and never read a cycle count, so whether
// an access hits and where, and whether a branch mispredicts, depend
// only on the trace, the predictor and the configuration fields
// Config.SameEvents compares. Pipelines that differ only in their
// schedule can therefore share one stage: per batch, the stage's event
// pass (Record) runs once and records one event byte per instruction,
// and then each pipeline's schedule pass (Pipeline.Schedule) reads the
// record.
type Events struct {
	pred branch.Predictor
	hier *cache.Hierarchy
	code []plan.Decoded // the program's plan (see internal/plan)

	filterProb, perfect bool // Config.FilterProb, Config.PerfectBranches

	m Metrics // the trace-determined counters; Instructions and Cycles stay 0

	// Line-streak state of the two L1s: an access to the line of the
	// previous access to the same cache bypasses the cache model (see
	// Record). The shifts map an instruction index and a data address
	// to their line numbers; both last-line registers start at a value
	// no real access produces.
	iblockShift uint
	dblockShift uint
	lastIBlock  uint64
	lastDBlock  uint64

	rec [emu.TraceBatch]event // the events of the last recorded batch
	n   int                   // the length of the last recorded batch
}

// Record is the event pass: it looks up the caches and the predictor
// for each instruction of a batch of at most emu.TraceBatch, in program
// order, counts the misses and mispredictions, and records each
// instruction's events for the schedules that read the stage.
//
// The line streaks: a fetch from the line of the previous fetch
// bypasses the cache model, since the line is resident (whatever filled
// it left it so, and no other instruction line has been touched since)
// and so a hit. The bypass keeps miss counts byte-identical to touching
// the cache every fetch — within a streak no other line is accessed, so
// the skipped LRU updates cannot reorder any set — and straight-line
// code makes the streak the common case (one Access per line instead of
// per instruction). Data accesses have their own streak with the same
// invariant: only data accesses touch the L1D, so an access to the line
// of the previous one finds it resident, and the skipped LRU update
// cannot reorder its set (that line is already the set's most recent).
func (st *Events) Record(batch []emu.DynInstr) {
	st.n = len(batch)
	st.m.L1IAccesses += uint64(len(batch))
	code, rec := st.code, st.rec[:len(batch)]
	for i := range batch {
		di := &batch[i]
		d := &code[di.PC]
		e := st.fetchEvent(di.PC)
		if d.Flags&(plan.FLoad|plan.FStore) != 0 {
			st.m.L1DAccesses++
			e |= st.dataEvent(di.MemAddr)
		}
		if d.Flags&plan.FBranch != 0 {
			e |= st.branchEvent(di, d)
		}
		rec[i] = e
	}
}

// Warm is functional warming: the event pass over a batch of any
// length with its counters put back afterwards, so warming moves no
// Metrics counter and the long-lived state that survives a
// fast-forward gap (cache tags, predictor tables and histories) is
// exactly what a detailed run would have left behind. No schedule
// reads a warmed batch.
func (st *Events) Warm(batch []emu.DynInstr) {
	saved := st.m
	for len(batch) > 0 {
		n := min(len(batch), emu.TraceBatch)
		st.Record(batch[:n])
		batch = batch[n:]
	}
	st.m = saved
}

// fetchEvent returns the I-side event of fetching the instruction at
// pc: a lookup of its line, unless the previous fetch was from that
// line. It must stay within the compiler's inlining budget (see
// go build -gcflags=-m), or every instruction pays a call.
func (st *Events) fetchEvent(pc int32) event {
	if iblock := uint64(pc) >> st.iblockShift; iblock != st.lastIBlock {
		return st.fetchLookup(iblock, pc)
	}
	return 0
}

// fetchLookup looks up iblock, the fetch line of the instruction at pc,
// and counts its misses. Like dataLookup, it calls the caches itself
// rather than through cache.Hierarchy, which keeps a lookup one call
// level below the event pass.
func (st *Events) fetchLookup(iblock uint64, pc int32) event {
	st.lastIBlock = iblock
	if st.hier.L1I.Access(uint64(pc) * 8) {
		return event(cache.LevelL1)
	}
	st.m.L1IMisses++
	if st.hier.L2.Access(uint64(pc) * 8) {
		return event(cache.LevelL2)
	}
	st.m.L2Misses++
	return event(cache.LevelMem)
}

// dataEvent returns the D-side event of a data access to addr: a lookup
// of its line, unless the previous data access was to that line. Like
// fetchEvent, it must stay inlinable.
func (st *Events) dataEvent(addr uint64) event {
	if dblock := addr >> st.dblockShift; dblock != st.lastDBlock {
		return st.dataLookup(dblock, addr)
	}
	return 0
}

// dataLookup looks up dblock, the data line of addr, and counts its
// misses.
func (st *Events) dataLookup(dblock, addr uint64) event {
	st.lastDBlock = dblock
	if st.hier.L1D.Access(addr) {
		return event(cache.LevelL1) << evDataShift
	}
	st.m.L1DMisses++
	if st.hier.L2.Access(addr) {
		return event(cache.LevelL2) << evDataShift
	}
	st.m.L2Misses++
	return event(cache.LevelMem) << evDataShift
}

// branchEvent counts a control transfer and, for a conditional branch
// the front end must predict, predicts it, trains the predictor and
// returns evMispredict when the prediction was wrong.
func (st *Events) branchEvent(di *emu.DynInstr, d *plan.Decoded) event {
	st.m.Branches++
	if d.Flags&(plan.FMidProb|plan.FCond) != plan.FCond {
		// An intermediate value-transfer PROB_JMP is no control
		// transfer, and JMP/CALL/RET take their target from the BTB/RAS,
		// assumed perfect.
		return 0
	}
	st.m.CondBranches++
	if st.perfect {
		return 0
	}
	isProb := di.Prob != emu.ProbNone
	if isProb {
		st.m.ProbBranches++
		switch di.Prob {
		case emu.ProbSteered:
			st.m.ProbSteered++
			// Direction known at fetch (Prob-BTB): no prediction, no
			// penalty, no predictor pollution.
			return 0
		case emu.ProbBootstrap:
			st.m.ProbBoot++
		case emu.ProbRegular:
			st.m.ProbRegular++
		}
		if st.filterProb {
			// Interference experiment: probabilistic branches neither
			// access nor update the predictor.
			return 0
		}
	}
	pred := st.pred.Predict(uint64(di.PC))
	st.pred.Update(uint64(di.PC), di.Taken, pred)
	if pred == di.Taken {
		return 0
	}
	st.m.Mispredicts++
	if isProb {
		st.m.MispredictsProb++
	} else {
		st.m.MispredictsReg++
	}
	return evMispredict
}

// Pipeline is the timing model for one run. It has two parts, joined by
// one event byte per instruction: the miss-event stage (Events), which
// it may share with other pipelines, and the schedule — fetch cursor,
// dataflow, functional-unit rings, ROB and commit — which is its own.
// A pipeline that alone reads its stage consumes the emulator's trace
// batch-wise through ConsumeTrace (the emu.TraceSink contract); a
// caller that shares a stage runs its event pass and then each
// pipeline's Schedule.
type Pipeline struct {
	*Events // the miss-event stage whose record this pipeline schedules

	cfg  Config
	plan *plan.Plan

	// The two counters the schedule owns (see Metrics).
	instructions uint64
	cycles       uint64

	// fetch state
	curFetchCycle     uint64
	fetchedInCycle    int
	breakFetch        bool // a taken branch ends the current fetch cycle
	fetchBlockedUntil uint64

	// dataflow: ready cycle per register, padded with the cells the
	// plan's fixed-arity source and destination sets point at (see
	// plan.SrcNone).
	regReady [plan.NumDataflowCells]uint64

	// robRing is the one in-order ring: slot robPos (the wrapped cursor
	// idx%ROBSize, maintained incrementally so the schedule divides by
	// nothing) holds the commit cycle of instruction idx-ROBSize, and
	// slot (robPos-Width) mod ROBSize that of idx-Width.
	robRing []uint64
	robPos  int

	// precomputed config values on the hot path
	feDepth uint64
	misPen  uint64
	// istall is the fetch stall per I-side event level: the serving
	// level's latency beyond the L1 hit time, or 0 (an L1 hit, or a
	// degenerate configuration that serves misses no slower). dlat is a
	// load's latency per D-side event level. Index 3 is unused.
	istall [4]uint64
	dlat   [4]uint64

	// functional units: backfill scheduler
	fus fuSched
}

// Released stages and pipelines wait here for the next New or
// NewFollower (see Events.Release and Pipeline.Release), which resets
// one to the power-on state.
var eventsPool, pipePool sync.Pool

// New builds a pipeline bound to a program, predictor and fresh caches,
// with a miss-event stage of its own, which owns the predictor from
// then on. The program must not be mutated afterwards (its decoded
// execution plan is shared read-only; see internal/plan).
func New(cfg Config, prog *isa.Program, pred branch.Predictor) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := plan.For(prog)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2)
	if err != nil {
		return nil, err
	}
	st, ok := eventsPool.Get().(*Events)
	if !ok {
		st = new(Events)
	}
	*st = Events{
		pred:       pred,
		hier:       hier,
		code:       pl.Code,
		filterProb: cfg.FilterProb,
		perfect:    cfg.PerfectBranches,
		lastIBlock: ^uint64(0),
		lastDBlock: ^uint64(0),
	}
	// Instructions are 8 bytes, so PC>>(log2(LineBytes)-3) is the fetch
	// line number (line sizes below 8 bytes degrade to per-PC streaks,
	// which are still sound: the same PC fetches the same line). Data
	// lines are addr>>log2(LineBytes), the cache's own block number.
	for lb := cfg.L1I.LineBytes; lb > 8; lb >>= 1 {
		st.iblockShift++
	}
	for lb := cfg.L1D.LineBytes; lb > 1; lb >>= 1 {
		st.dblockShift++
	}
	return newSchedule(cfg, pl, st), nil
}

// NewFollower builds a pipeline that shares lead's miss-event stage: it
// schedules the events the stage records, so the stage's event pass
// must run on every batch before the follower's Schedule. cfg may
// differ from lead's only in the schedule (see Config.SameEvents).
func NewFollower(cfg Config, lead *Pipeline) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.SameEvents(lead.cfg) {
		return nil, fmt.Errorf("pipeline: a follower needs its lead's caches, memory latency, predictor filtering and front end")
	}
	return newSchedule(cfg, lead.plan, lead.Events), nil
}

// newSchedule builds an empty schedule that reads stage st, on the ROB
// and FU rings of a released pipeline when there is one.
func newSchedule(cfg Config, pl *plan.Plan, st *Events) *Pipeline {
	p, ok := pipePool.Get().(*Pipeline)
	if !ok {
		p = new(Pipeline)
	}
	rob := p.robRing
	if cap(rob) < cfg.ROBSize {
		rob = make([]uint64, cfg.ROBSize)
	} else {
		rob = rob[:cfg.ROBSize]
		clear(rob)
	}
	fus := p.fus
	fus.reset([plan.NumFUClasses]uint8{
		plan.FUALU:    uint8(cfg.IntALUs),
		plan.FUMul:    1,
		plan.FUDiv:    1,
		plan.FUFP:     uint8(cfg.FPUs),
		plan.FUFDiv:   1,
		plan.FUFLong:  1,
		plan.FUMem:    uint8(cfg.MemPorts),
		plan.FUBranch: uint8(cfg.BranchUnits),
	}, pl.FUs)
	*p = Pipeline{
		Events:  st,
		cfg:     cfg,
		plan:    pl,
		robRing: rob,
		feDepth: uint64(cfg.FrontendDepth),
		misPen:  uint64(cfg.MispredictPenalty),
		fus:     fus,
	}
	for lvl, lat := range []int{cfg.L1I.HitLatency, cfg.L2.HitLatency, cfg.MemLatency} {
		if lvl != int(cache.LevelL1) && lat > cfg.L1I.HitLatency {
			p.istall[lvl] = uint64(lat)
		}
	}
	for lvl, lat := range []int{cfg.L1D.HitLatency, cfg.L2.HitLatency, cfg.MemLatency} {
		p.dlat[lvl] = uint64(lat)
	}
	return p
}

// Release hands the stage's predictor, cache hierarchy and record back
// for later pipelines to reuse; neither the stage nor a pipeline that
// reads it may be used afterwards.
func (st *Events) Release() {
	branch.Release(st.pred)
	st.hier.Release()
	*st = Events{}
	eventsPool.Put(st)
}

// Release hands the schedule's ROB and FU rings back for a later
// pipeline to reuse, the rings at the size they grew to; p must not be
// used afterwards. It leaves p's stage alone: release that with
// p.Events.Release once no pipeline reads it.
func (p *Pipeline) Release() {
	p.Events, p.plan = nil, nil
	pipePool.Put(p)
}

// ConsumeTrace implements emu.TraceSink for a pipeline that alone reads
// its miss-event stage: it runs the stage's event pass and then the
// schedule over each emulator-sized slice of a batch of any length.
// Pass the pipeline to emu.CPU.SetTraceSink.
func (p *Pipeline) ConsumeTrace(batch []emu.DynInstr) {
	for len(batch) > 0 {
		n := min(len(batch), emu.TraceBatch)
		p.Record(batch[:n])
		p.Schedule(batch[:n])
		batch = batch[n:]
	}
}

// Schedule is the schedule pass: the fetch, issue, execute, branch and
// commit of each instruction of the batch the pipeline's stage
// recorded last, with the fetch cursors kept in the struct rather than
// in locals (measured faster). It sees each instruction's miss events
// only through the recorded event byte.
func (p *Pipeline) Schedule(batch []emu.DynInstr) {
	if len(batch) != p.n {
		panic("pipeline: a schedule consumed a batch its stage did not record")
	}
	code := p.plan.Code
	rec := p.rec[:len(batch)]
	for i := range batch {
		di := &batch[i]
		d := &code[di.PC]
		e := rec[i]

		// ---- fetch ----
		fc := p.curFetchCycle
		if p.breakFetch || p.fetchedInCycle >= p.cfg.Width {
			fc++
			p.fetchedInCycle = 0
			p.breakFetch = false
		}
		// Fetch waits for a misprediction redirect and for a ROB slot:
		// instruction idx-ROBSize must have committed. Until the ROB
		// first fills, the slot holds zero, which stalls nothing.
		if stall := max(p.fetchBlockedUntil, p.robRing[p.robPos]); stall > fc {
			fc = stall
			p.fetchedInCycle = 0
		}
		// A fetch that misses the L1I stalls for the serving level's
		// latency beyond the L1 hit time.
		if e&3 != 0 {
			if stall := p.istall[e&3]; stall != 0 {
				fc += stall
				p.fetchedInCycle = 0
			}
		}
		p.curFetchCycle = fc // fc only ever moves forward from the cursor
		p.fetchedInCycle++

		// ---- issue / execute ----
		rr := &p.regReady
		issue := max(fc+p.feDepth, rr[d.Src[0]], rr[d.Src[1]], rr[d.Src[2]])
		if d.Occ == 1 {
			// Fully pipelined: the first cycle from issue with a free
			// unit. One cell probe per candidate cycle, plus the live
			// check when the probe finds another cycle's tag.
			ring := p.fus.rings[d.FU]
			units := p.fus.units[d.FU]
			for {
				c := &ring[issue&uint64(len(ring)-1)]
				if c.cycle() != issue {
					if c.live(fc) {
						c = p.fus.claim(d.FU, issue, fc)
					}
					*c = fuCell(issue<<8 | 1)
					break
				}
				if c.count() < units {
					*c++
					break
				}
				issue++
			}
		} else {
			issue = p.fus.schedule(d.FU, issue, uint64(d.Occ), fc)
		}
		lat := uint64(d.Lat)
		if d.Flags&plan.FLoad != 0 {
			// A load takes the serving data level's latency. Stores
			// retire without blocking (write buffer); latency stays 1.
			lat = p.dlat[e>>evDataShift&3]
		}
		execDone := issue + lat
		rr[d.Dst[0]] = execDone
		rr[d.Dst[1]] = execDone

		// ---- branches ----
		if d.Flags&plan.FBranch != 0 {
			if di.Taken && d.Flags&plan.FMidProb == 0 {
				p.breakFetch = true
			}
			if e&evMispredict != 0 {
				// Fetch restarts the penalty after the branch resolves:
				// where it leaves the front end, or where it executes.
				resolved := fc + p.feDepth + 1
				if p.cfg.ResolutionPenalty || execDone < resolved {
					resolved = execDone
				}
				p.fetchBlockedUntil = max(p.fetchBlockedUntil, resolved+p.misPen)
			}
		}

		// ---- commit ----
		// In order, at most Width per cycle: no earlier than the previous
		// commit (the running cycle count) nor a cycle after instruction
		// idx-Width committed.
		w := p.robPos - p.cfg.Width
		if w < 0 {
			w += len(p.robRing)
		}
		cc := max(execDone+1, p.cycles, p.robRing[w]+1)
		p.robRing[p.robPos] = cc
		if p.robPos++; p.robPos == len(p.robRing) {
			p.robPos = 0
		}
		p.cycles = cc
	}
	p.instructions += uint64(len(batch))
}

// Metrics returns the accumulated metrics: the stage's counters with
// the schedule's Instructions and Cycles. Call after the emulator run
// completes (with a TraceSink attachment, after the final flush).
func (p *Pipeline) Metrics() Metrics {
	m := p.Events.m
	m.Instructions, m.Cycles = p.instructions, p.cycles
	return m
}
