package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// The sweep grid's run lengths: every point forks from its group's
// shared functional prefix of gridWarmPrefix instructions and stops at
// gridMaxInstrs, shorter than every workload, so no program halts early.
const (
	gridWarmPrefix = 100_000
	gridMaxInstrs  = 400_000
	gridSeeds      = 2
)

// sweepGrid runs a Figure-7/8-style grid through a fresh sweep.Engine
// per pass: every workload × PBS × widths {4,8} × tage-sc-l, sharded over
// several seeds, forking from warm-prefix checkpoints. Each pass starts
// with a cold result cache; the program cache is built during setup. The
// engine runs one point at a time on the synchronous timing path (the
// path it takes whenever its pool fills the machine): a pool of one
// session per CPU made the figure follow the load other tenants put on
// both CPUs of a shared host, with twice full-mix's spread.
type sweepGrid struct {
	seed  uint64
	progs *sweep.ProgramCache
}

// grid returns the grid over the named workloads (nil: all of them).
func (s *sweepGrid) grid(names []string) sweep.Grid {
	seeds := make([]uint64, gridSeeds)
	for i := range seeds {
		seeds[i] = s.seed + uint64(i)
	}
	return sweep.Grid{
		Workloads:  names,
		Predictors: []sim.PredictorKind{sim.PredTAGESCL},
		PBS:        []bool{false, true},
		Widths:     []int{4, 8},
		Seeds:      seeds,
		ShardSeeds: true,
		WarmPrefix: gridWarmPrefix,
		MaxInstrs:  gridMaxInstrs,
		Parallel:   1,
		SyncTiming: true,
	}
}

// setupCache fills a fresh program cache with every workload's program,
// timing the builds, and constructs one session per workload.
func setupCache(st *setupTimes) (*sweep.ProgramCache, error) {
	pc := sweep.NewProgramCache()
	progs, err := buildPrograms(workloads.Names(), st, func(name string) (*isa.Program, error) {
		return pc.Get(name, 1, workloads.VariantPlain)
	})
	if err != nil {
		return nil, err
	}
	for _, name := range workloads.Names() {
		if err := newSession(st, name, sim.WithProgram(progs[name])); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

func (s *sweepGrid) setup() (setupTimes, error) {
	var st setupTimes
	pc, err := setupCache(&st)
	if err == nil {
		s.progs = pc
	}
	return st, err
}

// gridRun is one engine pass over the grid.
type gridRun struct {
	res    sweep.Results
	instrs uint64 // instructions the engine retired
	points int    // single-seed runs
	groups int    // distinct warm-prefix groups
	json   []byte // the records as sweep.WriteRecordsJSON writes them
}

func (s *sweepGrid) runGrid(e *sweep.Engine, names []string) (*gridRun, error) {
	res, err := e.Run(context.Background(), s.grid(names))
	if err != nil {
		return nil, err
	}
	return summarizeGrid(res)
}

// summarizeGrid counts the work a grid run did: each shard's
// instructions past its warm prefix, plus each warm group's prefix once
// (the engine runs it once and forks every member from it).
func summarizeGrid(res sweep.Results) (*gridRun, error) {
	g := &gridRun{res: res}
	groups := map[sweep.Point]bool{}
	for _, r := range res {
		if r.Agg == nil {
			return nil, fmt.Errorf("%s: expected a sharded aggregate", r.Point)
		}
		for i, sr := range r.Agg.Sims {
			p := r.Point.Shard(r.Agg.Seeds[i])
			g.points++
			g.instrs += sr.Emu.Instructions
			if wp, ok := p.WarmPoint(); ok && sr.Emu.Instructions > p.WarmPrefix {
				g.instrs -= p.WarmPrefix
				groups[wp] = true
			}
		}
	}
	g.groups = len(groups)
	g.instrs += uint64(g.groups) * gridWarmPrefix
	var buf bytes.Buffer
	if err := sweep.WriteRecordsJSON(&buf, res.Records()); err != nil {
		return nil, err
	}
	g.json = buf.Bytes()
	return g, nil
}

func (s *sweepGrid) engine() *sweep.Engine {
	return &sweep.Engine{Programs: s.progs, Results: sweep.NewResultCache()}
}

func (s *sweepGrid) run(budget time.Duration, c *runLog) (figures, error) {
	var items []item
	for _, name := range workloads.Names() {
		items = append(items, item{key: name, run: func() (outcome, error) {
			g, err := s.runGrid(s.engine(), []string{name})
			if err != nil {
				return outcome{}, err
			}
			return outcome{instrs: g.instrs, points: g.points, fingerprint: string(g.json)}, nil
		}})
	}
	m := startMeter()
	l := runLoop(items, budget, c)
	m.stop()
	return l.figures(m), nil
}

// trace times engine passes with the process CPU they burn (pool
// utilisation), then measures checkpoint encode and resume on every warm
// group of the grid directly through Session.Checkpoint and sim.Resume.
func (s *sweepGrid) trace(budget time.Duration, c *runLog, tr *Tracer) (map[string]float64, error) {
	track := tr.Track()
	var (
		ref          *gridRun
		wall, cpu    float64
		untracedWall float64
	)
	start := time.Now()
	for ref == nil || time.Since(start) < budget {
		t0 := time.Now()
		u, err := s.runGrid(s.engine(), nil)
		untracedWall += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		c.attempted += u.points
		m := startMeter()
		track.Begin("sweep.engine_run")
		g, err := s.runGrid(s.engine(), nil)
		track.End()
		m.stop()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(g.json, u.json) || (ref != nil && !bytes.Equal(g.json, ref.json)) {
			c.fail(g.points, "grid records differ between passes of the same seed")
		}
		wall += m.Wall
		cpu += m.CPU
		if ref == nil {
			ref = g
		}
	}
	enc, resume, size, err := s.checkpointCosts(track, ref)
	if err != nil {
		return nil, err
	}
	busy := cpu / (wall * float64(s.grid(nil).Parallel))
	return map[string]float64{
		"ckpt.encode_ms":      enc * 1e3,
		"ckpt.resume_ms":      resume * 1e3,
		"ckpt.bytes":          size,
		"sweep.warm_groups":   float64(ref.groups),
		"sweep.prefix_share":  float64(ref.groups*gridWarmPrefix) / float64(ref.instrs),
		"sweep.pool_busy":     busy,
		"traced.overhead_pct": (wall - untracedWall) / untracedWall * 100,
		// The engine's layers are not reachable from outside its Run, so
		// the unattributed share is the pool capacity its work left idle.
		"unattributed.share":    1 - busy,
		"emu.instrs":            float64(ref.instrs),
		"emu.cond_branches":     float64(sumSims(ref.res, func(r *sim.Result) uint64 { return r.Emu.CondBranches })),
		"emu.prob_branches":     float64(sumSims(ref.res, func(r *sim.Result) uint64 { return r.Emu.ProbBranches })),
		"pipeline.cycles":       float64(sumSims(ref.res, func(r *sim.Result) uint64 { return r.Timing.Cycles })),
		"core.resolutions":      float64(sumSims(ref.res, func(r *sim.Result) uint64 { return r.PBSStats.Resolutions })),
		"core.const_violations": float64(sumSims(ref.res, func(r *sim.Result) uint64 { return r.PBSStats.ConstViolations })),
	}, nil
}

func sumSims(res sweep.Results, f func(*sim.Result) uint64) uint64 {
	var n uint64
	for _, r := range res {
		for _, s := range r.Agg.Sims {
			n += f(s)
		}
	}
	return n
}

// checkpointCosts runs each warm group's prefix, then times encoding its
// checkpoint and resuming every grid point of the group from it. It
// returns mean seconds per encode and per resume, and mean bytes.
func (s *sweepGrid) checkpointCosts(track *Track, ref *gridRun) (enc, resume, size float64, err error) {
	members := map[sweep.Point][]sweep.Point{}
	var order []sweep.Point
	for _, r := range ref.res {
		for _, seed := range r.Agg.Seeds {
			p := r.Point.Shard(seed)
			wp, ok := p.WarmPoint()
			if !ok {
				continue
			}
			if members[wp] == nil {
				order = append(order, wp)
			}
			members[wp] = append(members[wp], p)
		}
	}
	var encodes, resumes int
	for _, wp := range order {
		opts, err := wp.Options()
		if err != nil {
			return 0, 0, 0, err
		}
		prog, err := s.progs.Get(wp.Workload, wp.Scale, wp.Variant)
		if err != nil {
			return 0, 0, 0, err
		}
		sess, err := sim.New(wp.Workload, append(opts, sim.WithProgram(prog))...)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := sess.Run(); err != nil {
			return 0, 0, 0, err
		}
		track.Begin("ckpt.encode")
		ck, err := sess.Checkpoint()
		enc += float64(track.End())
		if err != nil {
			return 0, 0, 0, err
		}
		encodes++
		size += float64(len(ck.Bytes()))
		for _, p := range members[wp] {
			popts, err := p.Options()
			if err != nil {
				return 0, 0, 0, err
			}
			track.Begin("ckpt.resume")
			_, err = sim.Resume(ck, append(popts, sim.WithProgram(prog))...)
			resume += float64(track.End())
			if err != nil {
				return 0, 0, 0, err
			}
			resumes++
		}
	}
	if encodes == 0 || resumes == 0 {
		return 0, 0, 0, fmt.Errorf("grid has no warm group")
	}
	return enc / 1e9 / float64(encodes), resume / 1e9 / float64(resumes), size / float64(encodes), nil
}
