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

// fuRingMin is the initial size, in cycles, of each functional-unit
// class's time ring: 8 classes × 256 one-word cells = 16 KiB. A ring
// doubles whenever a live cell would be overwritten, so it only grows
// past this for runs whose in-flight schedule spans more cycles — long
// chains of dependent memory misses.
const fuRingMin = 1 << 8

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
type fuSched struct {
	units [plan.NumFUClasses]uint8
	rings [plan.NumFUClasses][]fuCell // power-of-two lengths
}

// fuCell packs one time-ring cell as cycle<<8 | count: cycles stay below
// 2^56 for any feasible run, counts below the 8-bit unit cap. One word
// per cell keeps a ring's hot region in cache.
type fuCell uint64

func (c fuCell) cycle() uint64        { return uint64(c) >> 8 }
func (c fuCell) count() uint8         { return uint8(c) }
func (c fuCell) live(now uint64) bool { return c.cycle() >= now && c.count() != 0 }

func newFUSched(units [plan.NumFUClasses]uint8) fuSched {
	s := fuSched{units: units}
	for class := range s.rings {
		s.rings[class] = make([]fuCell, fuRingMin)
	}
	return s
}

// schedule returns the issue cycle for an operation of the given class
// that becomes ready at `ready` (>= now) and occupies its unit for occ
// cycles; now is the current fetch cycle. The retire kernel schedules
// fully pipelined operations (occ == 1, the vast majority) inline and
// calls this only for multi-cycle ones; it is exact for any occ.
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

// Pipeline is the timing model for one run. It consumes the emulator's
// trace batch-wise through ConsumeTrace (the emu.TraceSink contract).
type Pipeline struct {
	cfg  Config
	plan *plan.Plan
	pred branch.Predictor
	hier *cache.Hierarchy

	m Metrics

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
	// idx%ROBSize, maintained incrementally so the kernel divides by
	// nothing) holds the commit cycle of instruction idx-ROBSize, and
	// slot (robPos-Width) mod ROBSize that of idx-Width.
	robRing []uint64
	robPos  int

	// precomputed config values on the hot path
	feDepth   uint64
	misPen    uint64
	l1iHitLat int
	l1dHitLat int

	// Line-streak state of the two L1s: an access to the line of the
	// previous access to the same cache bypasses the cache model (see
	// ConsumeTrace). The shifts map an instruction index and a data
	// address to their line numbers; both last-line registers start at
	// a value no real access produces.
	iblockShift uint
	dblockShift uint
	lastIBlock  uint64
	lastDBlock  uint64

	// functional units: backfill scheduler
	fus fuSched

	// funcWarm switches ConsumeTrace to the functional-warming path:
	// caches and predictor keep evolving (tag/history state only — no
	// cycle accounting, no Metrics movement), so a later measurement
	// window does not see state that went stale across a fast-forward
	// gap. The flag is owned by the session and only flipped between
	// batches, so no batch is consumed half in each mode.
	funcWarm bool
}

// New builds a pipeline bound to a program, predictor and fresh caches.
// The program must not be mutated afterwards (its decoded execution plan
// is shared read-only; see internal/plan).
func New(cfg Config, prog *isa.Program, pred branch.Predictor) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := plan.For(prog)
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.L1I, cfg.L1D, cfg.L2, cfg.MemLatency)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        cfg,
		plan:       pl,
		pred:       pred,
		hier:       hier,
		robRing:    make([]uint64, cfg.ROBSize),
		feDepth:    uint64(cfg.FrontendDepth),
		misPen:     uint64(cfg.MispredictPenalty),
		l1iHitLat:  cfg.L1I.HitLatency,
		l1dHitLat:  cfg.L1D.HitLatency,
		lastIBlock: ^uint64(0),
		lastDBlock: ^uint64(0),
		fus: newFUSched([plan.NumFUClasses]uint8{
			plan.FUALU:    uint8(cfg.IntALUs),
			plan.FUMul:    1,
			plan.FUDiv:    1,
			plan.FUFP:     uint8(cfg.FPUs),
			plan.FUFDiv:   1,
			plan.FUFLong:  1,
			plan.FUMem:    uint8(cfg.MemPorts),
			plan.FUBranch: uint8(cfg.BranchUnits),
		}),
	}
	// Instructions are 8 bytes, so PC>>(log2(LineBytes)-3) is the fetch
	// line number (line sizes below 8 bytes degrade to per-PC streaks,
	// which are still sound: the same PC fetches the same line). Data
	// lines are addr>>log2(LineBytes), the cache's own block number.
	for lb := cfg.L1I.LineBytes; lb > 8; lb >>= 1 {
		p.iblockShift++
	}
	for lb := cfg.L1D.LineBytes; lb > 1; lb >>= 1 {
		p.dblockShift++
	}
	return p, nil
}

// SetFuncWarm flips the functional-warming consume path. Callers must
// only flip it between batches (the emulator's trace flushed).
func (p *Pipeline) SetFuncWarm(on bool) { p.funcWarm = on }

// FuncWarm reports whether the functional-warming path is active.
func (p *Pipeline) FuncWarm() bool { return p.funcWarm }

// warmRetire is the functional-warming counterpart of the retire
// kernel: it feeds the instruction's cache and predictor footprint
// through the models — the same accesses, the same update policy, the
// same streak bypasses as the detailed path — and nothing else. No
// cycle accounting, no fetch or dataflow modelling, no Metrics
// movement; the long-lived state that survives a fast-forward gap
// (cache tags, predictor tables and histories) stays exactly what a
// detailed run would have left behind.
func (p *Pipeline) warmRetire(di *emu.DynInstr) {
	d := &p.plan.Code[di.PC]
	if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
		p.lastIBlock = iblock
		p.hier.InstrLatency(uint64(di.PC) * 8)
	}
	if d.Flags&(plan.FLoad|plan.FStore) != 0 {
		if dblock := di.MemAddr >> p.dblockShift; dblock != p.lastDBlock {
			p.lastDBlock = dblock
			p.hier.DataLatency(di.MemAddr)
		}
	}
	if d.Flags&plan.FBranch == 0 || d.Flags&(plan.FMidProb|plan.FCond) != plan.FCond || p.cfg.PerfectBranches {
		return
	}
	if di.Prob != emu.ProbNone && (di.Prob == emu.ProbSteered || p.cfg.FilterProb) {
		// Steered and filtered probabilistic branches never touch the
		// predictor in the detailed path either.
		return
	}
	pred := p.pred.Predict(uint64(di.PC))
	p.pred.Update(uint64(di.PC), di.Taken, pred)
}

// ConsumeTrace implements emu.TraceSink: it retires one batch of
// instructions in program order. Pass the pipeline to
// emu.CPU.SetTraceSink.
//
// The loop body is the retire kernel: fetch, issue, execute, branch
// and commit of one instruction, with the fetch cursors kept in the
// struct rather than in locals (locals spill across the predictor and
// cache calls).
func (p *Pipeline) ConsumeTrace(batch []emu.DynInstr) {
	if p.funcWarm {
		for i := range batch {
			p.warmRetire(&batch[i])
		}
		return
	}
	code := p.plan.Code
	for i := range batch {
		di := &batch[i]
		d := &code[di.PC]

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
		// Instruction cache. A fetch from the line of the previous fetch
		// bypasses the cache model: the line is resident (whatever filled
		// it left it so, and no other instruction line has been touched
		// since), so it is a hit with no stall. The bypass keeps miss
		// counts byte-identical to touching the cache every fetch —
		// within a streak no other line is accessed, so the skipped LRU
		// updates cannot reorder any set — and straight-line code makes
		// the streak the common case (one Access per line instead of per
		// instruction).
		p.m.L1IAccesses++
		if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
			p.lastIBlock = iblock
			if lat, lvl := p.hier.InstrLatency(uint64(di.PC) * 8); lvl != cache.LevelL1 {
				p.m.L1IMisses++
				if lvl == cache.LevelMem {
					p.m.L2Misses++
				}
				// A fetch stalls only for latency beyond the L1 hit time
				// (a degenerate configuration may serve misses no slower).
				if lat > p.l1iHitLat {
					fc += uint64(lat)
					p.fetchedInCycle = 0
				}
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
		if d.Flags&(plan.FLoad|plan.FStore) != 0 {
			// Data cache, with the same line-streak bypass and the same
			// invariant: only data accesses touch the L1D, so an access to
			// the line of the previous one finds it resident, and the
			// skipped LRU update cannot reorder its set (that line is
			// already the set's most recent).
			p.m.L1DAccesses++
			dlat := p.l1dHitLat
			if dblock := di.MemAddr >> p.dblockShift; dblock != p.lastDBlock {
				p.lastDBlock = dblock
				var lvl cache.Level
				if dlat, lvl = p.hier.DataLatency(di.MemAddr); lvl != cache.LevelL1 {
					p.m.L1DMisses++
					if lvl == cache.LevelMem {
						p.m.L2Misses++
					}
				}
			}
			if d.Flags&plan.FLoad != 0 {
				lat = uint64(dlat)
			}
			// Stores retire without blocking (write buffer); latency stays 1.
		}
		execDone := issue + lat
		rr[d.Dst[0]] = execDone
		rr[d.Dst[1]] = execDone

		// ---- branches ----
		if d.Flags&plan.FBranch != 0 {
			p.handleBranch(di, d, fc, execDone)
		}

		// ---- commit ----
		// In order, at most Width per cycle: no earlier than the previous
		// commit (the running cycle count) nor a cycle after instruction
		// idx-Width committed.
		w := p.robPos - p.cfg.Width
		if w < 0 {
			w += len(p.robRing)
		}
		cc := max(execDone+1, p.m.Cycles, p.robRing[w]+1)
		p.robRing[p.robPos] = cc
		if p.robPos++; p.robPos == len(p.robRing) {
			p.robPos = 0
		}
		p.m.Cycles = cc
		p.m.Instructions++
	}
}

// handleBranch performs prediction accounting and misprediction redirects.
// fc is the branch's fetch cycle, execDone its execution-complete cycle.
func (p *Pipeline) handleBranch(di *emu.DynInstr, d *plan.Decoded, fc, execDone uint64) {
	p.m.Branches++
	if d.Flags&plan.FMidProb != 0 {
		return // intermediate value-transfer PROB_JMP: not a control transfer
	}
	if di.Taken {
		p.breakFetch = true
	}
	if d.Flags&plan.FCond == 0 {
		// JMP/CALL/RET: target from BTB/RAS, assumed perfect.
		return
	}
	p.m.CondBranches++
	if p.cfg.PerfectBranches {
		return
	}

	isProb := di.Prob != emu.ProbNone
	if isProb {
		p.m.ProbBranches++
		switch di.Prob {
		case emu.ProbSteered:
			p.m.ProbSteered++
			// Direction known at fetch (Prob-BTB): no prediction, no
			// penalty, no predictor pollution.
			return
		case emu.ProbBootstrap:
			p.m.ProbBoot++
		case emu.ProbRegular:
			p.m.ProbRegular++
		}
		if p.cfg.FilterProb {
			// Interference experiment: probabilistic branches neither
			// access nor update the predictor.
			return
		}
	}

	pred := p.pred.Predict(uint64(di.PC))
	p.pred.Update(uint64(di.PC), di.Taken, pred)
	if pred != di.Taken {
		p.m.Mispredicts++
		if isProb {
			p.m.MispredictsProb++
		} else {
			p.m.MispredictsReg++
		}
		resolved := fc + p.feDepth + 1
		if p.cfg.ResolutionPenalty || execDone < resolved {
			resolved = execDone
		}
		p.fetchBlockedUntil = max(p.fetchBlockedUntil, resolved+p.misPen)
	}
}

// Metrics returns the accumulated metrics. Call after the emulator run
// completes (with a TraceSink attachment, after the final flush).
func (p *Pipeline) Metrics() Metrics { return p.m }
