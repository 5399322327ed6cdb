package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/workloads"
)

// refPipeline is the per-instruction timing model the retire kernel
// replaced, kept as its reference: one retire call per instruction,
// variable-length dataflow sets walked from the instruction's own
// SrcRegs/DstRegs instead of the plan's padded ones, a commit ring
// beside the ROB ring, a last-commit register and an instruction
// counter, every functional-unit operation through fuSched.schedule,
// and no L1D line streak (every data access goes to the cache model).
type refPipeline struct {
	cfg  Config
	prog *isa.Program
	plan *plan.Plan
	pred branch.Predictor
	hier *cache.Hierarchy
	fus  fuSched

	m Metrics

	curFetchCycle     uint64
	fetchedInCycle    int
	breakFetch        bool
	fetchBlockedUntil uint64

	regReady [isa.NumDataflowRegs]uint64

	robRing    []uint64 // commit cycle of instruction idx-ROBSize
	commitRing []uint64 // commit cycle of instruction idx-Width
	robPos     int
	commitPos  int
	lastCommit uint64
	idx        uint64

	iblockShift uint
	lastIBlock  uint64

	warming bool // functional warming: warmRetire instead of retire
}

// newRef builds the reference model with its own caches, scheduler and
// predictor state.
func newRef(t testing.TB, cfg Config, prog *isa.Program, pred branch.Predictor) *refPipeline {
	t.Helper()
	// New validates the configuration and builds fresh caches and a
	// fresh scheduler; the reference takes those and nothing else.
	p, err := New(cfg, prog, pred)
	if err != nil {
		t.Fatal(err)
	}
	r := &refPipeline{
		cfg:        cfg,
		prog:       prog,
		plan:       p.plan,
		pred:       pred,
		hier:       p.hier,
		fus:        p.fus,
		robRing:    make([]uint64, cfg.ROBSize),
		commitRing: make([]uint64, cfg.Width),
		lastIBlock: ^uint64(0),
	}
	for lb := cfg.L1I.LineBytes; lb > 8; lb >>= 1 {
		r.iblockShift++
	}
	return r
}

func (p *refPipeline) consume(trace []emu.DynInstr) {
	for i := range trace {
		if p.warming {
			p.warmRetire(&trace[i])
		} else {
			p.retire(&trace[i])
		}
	}
}

// access serves addr through l1, one of the pipeline's L1s, and then
// the L2, and returns the latency of the level that served it, from the
// configuration.
func (p *refPipeline) access(l1 *cache.Cache, addr uint64) (int, cache.Level) {
	if l1.Access(addr) {
		return l1.Config().HitLatency, cache.LevelL1
	}
	if p.hier.L2.Access(addr) {
		return p.cfg.L2.HitLatency, cache.LevelL2
	}
	return p.cfg.MemLatency, cache.LevelMem
}

func (p *refPipeline) warmRetire(di *emu.DynInstr) {
	d := &p.plan.Code[di.PC]
	if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
		p.lastIBlock = iblock
		p.access(p.hier.L1I, uint64(di.PC)*8)
	}
	if d.Flags&(plan.FLoad|plan.FStore) != 0 {
		p.access(p.hier.L1D, di.MemAddr)
	}
	if d.Flags&plan.FBranch == 0 || d.Flags&(plan.FMidProb|plan.FCond) != plan.FCond || p.cfg.PerfectBranches {
		return
	}
	if di.Prob != emu.ProbNone && (di.Prob == emu.ProbSteered || p.cfg.FilterProb) {
		return
	}
	pred := p.pred.Predict(uint64(di.PC))
	p.pred.Update(uint64(di.PC), di.Taken, pred)
}

func (p *refPipeline) retire(di *emu.DynInstr) {
	d := &p.plan.Code[di.PC]

	// ---- fetch ----
	fc := p.curFetchCycle
	if p.breakFetch || p.fetchedInCycle >= p.cfg.Width {
		fc++
		p.fetchedInCycle = 0
		p.breakFetch = false
	}
	if p.fetchBlockedUntil > fc {
		fc = p.fetchBlockedUntil
		p.fetchedInCycle = 0
	}
	if p.idx >= uint64(p.cfg.ROBSize) {
		if free := p.robRing[p.robPos]; free > fc {
			fc = free
			p.fetchedInCycle = 0
		}
	}
	p.m.L1IAccesses++
	if iblock := uint64(di.PC) >> p.iblockShift; iblock != p.lastIBlock {
		p.lastIBlock = iblock
		if lat, lvl := p.access(p.hier.L1I, uint64(di.PC)*8); lvl != cache.LevelL1 {
			p.m.L1IMisses++
			if lvl == cache.LevelMem {
				p.m.L2Misses++
			}
			if lat > p.cfg.L1I.HitLatency {
				fc += uint64(lat)
				p.fetchedInCycle = 0
			}
		}
	}
	if fc > p.curFetchCycle {
		p.curFetchCycle = fc
	}
	p.fetchedInCycle++

	// ---- issue / execute ----
	var buf [4]isa.Reg
	issue := fc + uint64(p.cfg.FrontendDepth)
	for _, r := range p.prog.Code[di.PC].SrcRegs(buf[:0]) {
		if rr := p.regReady[r]; rr > issue {
			issue = rr
		}
	}
	lat := uint64(d.Lat)
	issue = p.fus.schedule(d.FU, issue, uint64(d.Occ), fc)
	if d.Flags&(plan.FLoad|plan.FStore) != 0 {
		p.m.L1DAccesses++
		dlat, lvl := p.access(p.hier.L1D, di.MemAddr)
		if lvl != cache.LevelL1 {
			p.m.L1DMisses++
			if lvl == cache.LevelMem {
				p.m.L2Misses++
			}
		}
		if d.Flags&plan.FLoad != 0 {
			lat = uint64(dlat)
		}
	}
	execDone := issue + lat
	for _, r := range p.prog.Code[di.PC].DstRegs(buf[:0]) {
		p.regReady[r] = execDone
	}

	// ---- branches ----
	if d.Flags&plan.FBranch != 0 {
		p.handleBranch(di, d, fc, execDone)
	}

	// ---- commit ----
	cc := execDone + 1
	if cc < p.lastCommit {
		cc = p.lastCommit
	}
	if prev := p.commitRing[p.commitPos] + 1; cc < prev {
		cc = prev
	}
	p.commitRing[p.commitPos] = cc
	p.robRing[p.robPos] = cc
	p.lastCommit = cc
	p.m.Cycles = cc
	p.idx++
	if p.commitPos++; p.commitPos == p.cfg.Width {
		p.commitPos = 0
	}
	if p.robPos++; p.robPos == p.cfg.ROBSize {
		p.robPos = 0
	}
	p.m.Instructions++
}

func (p *refPipeline) handleBranch(di *emu.DynInstr, d *plan.Decoded, fc, execDone uint64) {
	p.m.Branches++
	if d.Flags&plan.FMidProb != 0 {
		return
	}
	if di.Taken {
		p.breakFetch = true
	}
	if d.Flags&plan.FCond == 0 {
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
			return
		case emu.ProbBootstrap:
			p.m.ProbBoot++
		case emu.ProbRegular:
			p.m.ProbRegular++
		}
		if p.cfg.FilterProb {
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
		resolved := fc + uint64(p.cfg.FrontendDepth) + 1
		if p.cfg.ResolutionPenalty || execDone < resolved {
			resolved = execDone
		}
		if redirect := resolved + uint64(p.cfg.MispredictPenalty); redirect > p.fetchBlockedUntil {
			p.fetchBlockedUntil = redirect
		}
	}
}

// levelCounts is the [accesses misses] record of the three cache
// levels in m: the L2 sees every L1I and L1D miss.
func levelCounts(m Metrics) [3][2]uint64 {
	return [3][2]uint64{
		{m.L1IAccesses, m.L1IMisses},
		{m.L1DAccesses, m.L1DMisses},
		{m.L1IMisses + m.L1DMisses, m.L2Misses},
	}
}

// lastDataLine returns the L1D line of the last data access in trace,
// or the streak register's initial value if there is none.
func lastDataLine(p *Pipeline, trace []emu.DynInstr) uint64 {
	for i := len(trace) - 1; i >= 0; i-- {
		if p.plan.Code[trace[i].PC].Flags&(plan.FLoad|plan.FStore) != 0 {
			return trace[i].MemAddr >> p.dblockShift
		}
	}
	return ^uint64(0)
}

// TestRetireKernelMatchesReference replays each workload's first 200k
// retired instructions, PBS off and on, through the retire kernel (in
// batches of an odd size) and through the reference model (one
// instruction at a time), across core configurations and both
// predictors. The replay is detailed, then functionally warmed, then
// detailed again, and at each switch and at the end the two must agree
// on every Metrics counter, the accesses and misses of every cache level
// among them. Warming moves no counter, so the warm segment's cache
// contents show in the detailed segment after it.
func TestRetireKernelMatchesReference(t *testing.T) {
	const n, batch = 200_000, 251
	cuts := []int{80_000, 120_000, n} // detailed, warm, detailed
	robEqWidth := FourWide()
	robEqWidth.ROBSize = robEqWidth.Width
	filter, perfect, resolution := FourWide(), EightWide(), FourWide()
	filter.FilterProb = true
	perfect.PerfectBranches = true
	resolution.ResolutionPenalty = true
	configs := []struct {
		name string
		cfg  Config
	}{
		{"4wide", FourWide()},
		{"8wide", EightWide()},
		{"rob=width", robEqWidth},
		{"filter-prob", filter},
		{"perfect-8wide", perfect},
		{"resolution", resolution},
	}
	for _, name := range workloads.Names() {
		for _, pbs := range []bool{false, true} {
			prog, trace := recordWorkload(t, name, pbs, n)
			for _, c := range configs {
				for _, predName := range []string{"tage-sc-l", "tournament"} {
					label := fmt.Sprintf("%s/pbs=%v/%s/%s", name, pbs, c.name, predName)
					newPred := func() branch.Predictor {
						bp, err := branch.New(predName)
						if err != nil {
							t.Fatal(err)
						}
						return bp
					}
					kern, err := New(c.cfg, prog, newPred())
					if err != nil {
						t.Fatal(err)
					}
					ref := newRef(t, c.cfg, prog, newPred())
					from := 0
					for seg, cut := range cuts {
						cut = min(cut, len(trace))
						warm := seg%2 == 1
						ref.warming = warm
						for off := from; off < cut; off += batch {
							if warm {
								kern.Warm(trace[off:min(off+batch, cut)])
							} else {
								kern.ConsumeTrace(trace[off:min(off+batch, cut)])
							}
						}
						ref.consume(trace[from:cut])
						if kern.Metrics() != ref.m {
							t.Fatalf("%s: after %d instructions:\n kernel    %+v\n reference %+v", label, cut, kern.Metrics(), ref.m)
						}
						for lvl, c := range levelCounts(kern.Metrics()) {
							if c[1] > c[0] {
								t.Fatalf("%s: after %d instructions, cache level %d has %d misses in %d accesses", label, cut, lvl, c[1], c[0])
							}
						}
						// In either mode the streak registers name the
						// lines of the last fetch and the last data access.
						if kern.lastIBlock != ref.lastIBlock || kern.lastDBlock != lastDataLine(kern, trace[:cut]) {
							t.Fatalf("%s: after %d instructions, streak lines I %#x D %#x, want I %#x D %#x", label, cut,
								kern.lastIBlock, kern.lastDBlock, ref.lastIBlock, lastDataLine(kern, trace[:cut]))
						}
						from = cut
					}
				}
			}
		}
	}
}

// TestFollowersMatchSolo replays recorded traces through a lead and
// three followers of its miss-event stage — one event pass per batch,
// then each pipeline's schedule pass — and through the same four cores
// as solo pipelines, in emulator-sized batches with a
// functional-warming stretch in the middle. Every follower must end
// each segment with its solo pipeline's Metrics and checkpoint bytes.
func TestFollowersMatchSolo(t *testing.T) {
	const n = 150_000
	cuts := []int{60_000, 90_000, n} // detailed, warm, detailed
	resolution, tight := FourWide(), FourWide()
	resolution.ResolutionPenalty = true
	tight.ROBSize = tight.Width
	for _, lead := range []Config{FourWide(), resolution} {
		cfgs := []Config{lead, EightWide(), resolution, tight}
		if lead.ResolutionPenalty {
			for i := range cfgs {
				cfgs[i].FilterProb = true
			}
		}
		for _, name := range []string{"PI", "Bandit", "Swaptions"} {
			prog, trace := recordWorkload(t, name, true, n)
			for _, predName := range []string{"tage-sc-l", "tournament"} {
				label := fmt.Sprintf("%s/%s/filter=%v", name, predName, cfgs[0].FilterProb)
				group := make([]*Pipeline, len(cfgs))
				solo := make([]*Pipeline, len(cfgs))
				newPred := func() branch.Predictor {
					bp, err := branch.New(predName)
					if err != nil {
						t.Fatal(err)
					}
					return bp
				}
				for k, cfg := range cfgs {
					var err error
					if solo[k], err = New(cfg, prog, newPred()); err != nil {
						t.Fatal(err)
					}
					if k == 0 {
						group[k], err = New(cfg, prog, newPred())
					} else {
						group[k], err = NewFollower(cfg, group[0])
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				from := 0
				for seg, cut := range cuts {
					cut = min(cut, len(trace))
					warm := seg%2 == 1
					for off := from; off < cut; off += emu.TraceBatch {
						batch := trace[off:min(off+emu.TraceBatch, cut)]
						if warm {
							group[0].Warm(batch)
						} else {
							group[0].Record(batch)
						}
						for k := range cfgs {
							if warm {
								solo[k].Warm(batch)
								continue
							}
							group[k].Schedule(batch)
							solo[k].ConsumeTrace(batch)
						}
					}
					for k := range cfgs {
						if group[k].Metrics() != solo[k].Metrics() {
							t.Fatalf("%s: member %d after %d instructions:\n group %+v\n solo  %+v", label, k, cut, group[k].Metrics(), solo[k].Metrics())
						}
						if !bytes.Equal(snapshot(t, group[k]), snapshot(t, solo[k])) {
							t.Fatalf("%s: member %d after %d instructions: checkpoint differs from its solo pipeline's", label, k, cut)
						}
					}
					from = cut
				}
			}
		}
	}
}

// TestNewFollowerRejectsOtherEvents: a follower must see its lead's
// caches and predictor filtering.
func TestNewFollowerRejectsOtherEvents(t *testing.T) {
	prog, _ := recordWorkload(t, "PI", false, 1)
	lead, err := New(FourWide(), prog, branch.NewTAGESCL())
	if err != nil {
		t.Fatal(err)
	}
	for _, vary := range []func(*Config){
		func(c *Config) { c.L1I.SizeBytes /= 2 },
		func(c *Config) { c.L1D.Ways *= 2 },
		func(c *Config) { c.L2.HitLatency++ },
		func(c *Config) { c.MemLatency++ },
		func(c *Config) { c.FilterProb = true },
		func(c *Config) { c.PerfectBranches = true },
	} {
		cfg := EightWide()
		vary(&cfg)
		if _, err := NewFollower(cfg, lead); err == nil {
			t.Errorf("NewFollower accepted %+v as a follower of the default core", cfg)
		}
	}
	if _, err := NewFollower(EightWide(), lead); err != nil {
		t.Fatal(err)
	}
}
