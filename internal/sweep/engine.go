package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Engine executes sweep points on a bounded worker pool. The zero value
// is ready to use. An Engine is safe for concurrent use.
type Engine struct {
	// Programs caches assembled programs across runs; nil gives each
	// RunPoints call a cache of its own.
	Programs *ProgramCache
	// Deprecated: ignored; the engine simulates every run it is given.
	Results *ResultCache
	// OnProgress, when set, is called after each completed point with the
	// number of completed points and the total. Calls may arrive
	// concurrently from several workers.
	OnProgress func(done, total int)
}

// Result pairs a point with everything its simulation produced. Exactly
// one of Sim and Agg is set: Sim for an ordinary single-seed point, Agg
// for an aggregate point the engine sharded per seed and merged.
type Result struct {
	Point Point
	Sim   *sim.Result
	Agg   *Aggregate
}

// Aggregate is the merged record of one multi-seed point: the per-seed
// simulation results in seed-set order, plus mean/95%-CI summaries of
// the headline metrics across seeds (Student-t intervals, the paper's
// reporting convention). The per-seed results are exactly what the
// equivalent single-seed points produce — sharding changes scheduling,
// never numbers — so any seed-looping analysis can run off Sims
// unchanged.
type Aggregate struct {
	Seeds []uint64
	Sims  []*sim.Result

	Instructions stats.Summary
	Cycles       stats.Summary
	IPC          stats.Summary
	MPKI         stats.Summary
	MPKIProb     stats.Summary
	MPKIReg      stats.Summary
}

// NewAggregate merges completed per-seed shard results, in seed order,
// into the aggregate record of a sharded point (see Batch.Put). The
// merge is a pure function of the per-seed results — merging results a
// remote worker produced yields byte-for-byte the record an in-process
// sharded run would, which is why the sweep service can fan shards
// across hosts and merge server-side.
func NewAggregate(seeds []uint64, sims []*sim.Result) *Aggregate {
	collect := func(f func(*sim.Result) float64) stats.Summary {
		xs := make([]float64, len(sims))
		for i, s := range sims {
			xs[i] = f(s)
		}
		return stats.Summarize95(xs)
	}
	return &Aggregate{
		Seeds:        seeds,
		Sims:         sims,
		Instructions: collect(func(s *sim.Result) float64 { return float64(s.Emu.Instructions) }),
		Cycles:       collect(func(s *sim.Result) float64 { return float64(s.Timing.Cycles) }),
		// Effective metrics: the sampled estimate's mean for sampled
		// shards, the full timing ratio otherwise — so a sharded sampled
		// study aggregates the per-seed estimates.
		IPC:      collect((*sim.Result).EffectiveIPC),
		MPKI:     collect((*sim.Result).EffectiveMPKI),
		MPKIProb: collect(func(s *sim.Result) float64 { return s.Timing.MPKIProb() }),
		MPKIReg:  collect(func(s *sim.Result) float64 { return s.Timing.MPKIReg() }),
	}
}

// Results holds one completed sweep, in point order.
type Results []Result

// lookup scans for the normalized key, rejecting run-parameter
// ambiguity (see Get).
func (rs Results) lookup(k Key) (*Result, error) {
	var found *Result
	for i := range rs {
		if rs[i].Point.Key != k {
			continue
		}
		if found == nil {
			found = &rs[i]
		} else if found.Point != rs[i].Point {
			return nil, fmt.Errorf("sweep: ambiguous lookup %+v: %+v and %+v share the key but differ in run parameters",
				k, found.Point, rs[i].Point)
		}
	}
	if found == nil {
		return nil, fmt.Errorf("sweep: no result for %+v", k)
	}
	return found, nil
}

// Get returns the simulation result at the key (zero-value fields mean
// the axis defaults, see Key). A Results set merged from several grids
// may hold one key under different run parameters (say, a timing and a
// skip-timing run of the same configuration); such a lookup is ambiguous
// and fails rather than silently answering with either. Aggregate points
// are looked up with GetAggregate, not Get.
func (rs Results) Get(k Key) (*sim.Result, error) {
	k = k.normalize()
	if k.Sharded() {
		return nil, fmt.Errorf("sweep: %+v is an aggregate key; use GetAggregate", k)
	}
	found, err := rs.lookup(k)
	if err != nil {
		return nil, err
	}
	return found.Sim, nil
}

// GetAggregate returns the merged multi-seed result at the aggregate key
// (one whose Seeds names the canonical seed set, see MakeSeedSet). The
// same ambiguity rule as Get applies.
func (rs Results) GetAggregate(k Key) (*Aggregate, error) {
	k = k.normalize()
	if !k.Sharded() {
		return nil, fmt.Errorf("sweep: %+v is not an aggregate key (set Seeds via MakeSeedSet)", k)
	}
	found, err := rs.lookup(k)
	if err != nil {
		return nil, err
	}
	return found.Agg, nil
}

// Run expands the grid and executes every point.
func (e *Engine) Run(ctx context.Context, g Grid) (Results, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	return e.RunPoints(ctx, pts, g.Parallel)
}

// RunPoints executes the points with at most parallel concurrent
// simulations (0 means GOMAXPROCS). An aggregate point (non-empty
// Key.Seeds) fans out into one shard run per seed (see Batch), so a
// lone multi-seed point saturates the pool; its shards are ordinary
// single-seed points, and their completed results merge into an
// Aggregate in seed order. Runs that share a functional stream execute
// as one stream group: one emulator feeding every member's timing model
// (see Batch.Groups and StartGroup). Groups are split while there are
// fewer of them than workers, so grouping never costs concurrency. The
// first error aborts the sweep: no further groups are dispatched,
// in-flight groups — warm prefixes included — stop at their next chunk
// boundary, and the error is returned once they drain — together with
// the results of the points that did complete (in point order, fully
// merged aggregates only), so an interrupted sweep can still flush what
// it finished. Points with a WarmPrefix fast-forward over it once per
// group, in the group's own session (see Grid.WarmPrefix). Results are
// positionally deterministic — the same points produce the same results
// at any parallelism.
func (e *Engine) RunPoints(ctx context.Context, pts []Point, parallel int) (Results, error) {
	if len(pts) == 0 {
		return nil, ctx.Err()
	}
	b, err := NewBatch(pts)
	if err != nil {
		return nil, err
	}
	runs := b.Runs()
	progs := e.Programs
	if progs == nil {
		progs = NewProgramCache()
	}

	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	groups := SplitGroups(b.Groups(), parallel)
	if parallel > len(groups) {
		parallel = len(groups)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards b and firstErr
		firstErr error
		done     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	jobs := make(chan []int)
	for range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				if ctx.Err() != nil {
					continue // drain without running after an abort
				}
				pts := make([]Point, len(g))
				for i, r := range g {
					pts[i] = runs[r].Point
				}
				res, err := runGroup(ctx, progs, pts)
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				for i, r := range g {
					b.Put(r, res[i])
				}
				mu.Unlock()
				if e.OnProgress != nil {
					for range g {
						e.OnProgress(int(done.Add(1)), len(runs))
					}
				}
			}
		}()
	}
dispatch:
	for _, g := range groups {
		select {
		case jobs <- g:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// On an abort, return the completed points alongside the error, so
	// an interrupted batch (SIGINT in cmd/pbsweep) can still flush the
	// records it paid for. Unfinished points — aggregates with a partial
	// seed set included — are simply absent.
	err = firstErr
	if err == nil {
		err = ctx.Err()
	}
	return b.Results(), err
}

// SplitGroups halves the largest stream group, keeping dispatch order,
// until there are at least n groups or every group is a single run: a
// small batch then still fills the pool, and only spare runs share an
// emulator. The engine splits its batch's groups for its workers, the
// sweep service its queued groups for the workers polling it.
func SplitGroups[T any](groups [][]T, n int) [][]T {
	for len(groups) > 0 && len(groups) < n {
		big := 0
		for i, g := range groups {
			if len(g) > len(groups[big]) {
				big = i
			}
		}
		g := groups[big]
		if len(g) < 2 {
			break
		}
		h := len(g) / 2
		groups = slices.Insert(groups, big+1, g[h:])
		groups[big] = g[:h]
	}
	return groups
}

// runGroup executes one stream group (see Batch.Groups) and returns its
// points' results in order. The points share one session built by
// StartGroup on their program from progs, run in chunks to the end (see
// runSession) and closed, so the next group reuses its machine. Cached
// programs are shared read-only across the concurrently running
// sessions of the worker pool. Errors name the point they belong to:
// the failing member, or the first one for the shared stream.
func runGroup(ctx context.Context, progs *ProgramCache, pts []Point) ([]*sim.Result, error) {
	lead := pts[0]
	prog, err := progs.Get(lead.Workload, lead.Scale, lead.Variant)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lead, err)
	}
	s, err := StartGroup(ctx, pts, prog, nil, RunChunk)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := runSession(ctx, s, RunChunk); err != nil {
		// No "sweep:" prefix: the wrapped error carries its package
		// prefix already.
		return nil, fmt.Errorf("%s: %w", lead, err)
	}
	results, err := s.Results()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lead, err)
	}
	return results, nil
}

// StartGroup builds the session of one stream group — points sharing a
// StreamPoint, which the session emulates once for all of them (see
// sim.Session.AddMember) — on prog, their program (see
// ProgramCache.Get). The in-process engine and the sweep service's
// workers start every group here, so a group runs the same wherever it
// runs:
//
//   - with a progress checkpoint from, every member resumes from it (a
//     checkpoint that does not resume into exactly these points' members
//     is only a lost optimization: the group starts afresh below);
//   - else the group starts cold and, when the points have a warm prefix
//     (see WarmPoint), fast-forwards over it in chunks of chunk
//     instructions — stopping at the first chunk boundary after ctx ends
//     — so every timing model starts cold where the prefix ends; a
//     program that halts inside the prefix leaves no suffix to measure,
//     and the group starts cold again and runs in full.
//
// Each point's result is byte-identical to the one its own single-point
// group produces. Errors name the point they belong to. The caller
// closes the session (see sim.Session.Close); a session StartGroup
// abandons on the way, it closes itself.
func StartGroup(ctx context.Context, pts []Point, prog *isa.Program, from *sim.Checkpoint, chunk uint64) (*sim.Session, error) {
	lead := pts[0]
	if from != nil {
		if s, err := sim.Resume(from, sim.WithProgram(prog)); err == nil {
			if res, _ := s.Results(); len(res) == len(pts) {
				return s, nil
			}
			s.Close()
		}
	}
	s, err := newGroup(pts, prog)
	if err != nil {
		return nil, err
	}
	if _, ok := lead.WarmPoint(); !ok {
		return s, nil
	}
	for !s.Done() && s.Instructions() < lead.WarmPrefix {
		err := ctx.Err()
		if err == nil {
			_, err = s.FastForward(min(chunk, lead.WarmPrefix-s.Instructions()))
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("%s: warm prefix: %w", lead, err)
		}
	}
	if s.Halted() {
		s.Close()
		return newGroup(pts, prog)
	}
	return s, nil
}

// newGroup builds the cold session of the stream group pts: the first
// point's session, with every other point joined as a member.
func newGroup(pts []Point, prog *isa.Program) (*sim.Session, error) {
	opts, err := pts[0].sessionOptions(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pts[0], err)
	}
	s, err := sim.New(pts[0].Workload, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pts[0], err)
	}
	for _, p := range pts[1:] {
		opts, err := p.sessionOptions(prog)
		if err == nil {
			err = s.AddMember(opts...)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return s, nil
}

// sessionOptions is the point's Options plus the cached program.
func (p Point) sessionOptions(prog *isa.Program) ([]sim.Option, error) {
	opts, err := p.Options()
	if err != nil {
		return nil, err
	}
	return append(opts, sim.WithProgram(prog)), nil
}

// StreamPoint returns the canonical point of p's functional stream: p
// with the timing-only axes — predictor, core width, predictor
// filtering — at their defaults. Emulation never consumes timing
// results, so points with one StreamPoint retire the same instruction
// stream; a batch runs each such set as one stream group (see
// Batch.Groups and StartGroup). What remains — workload, variant,
// scale, seed, PBS hardware, value capture, SkipTiming, MaxInstrs,
// WarmPrefix and the sampling schedule — is exactly what shapes the
// stream and its schedule.
func (p Point) StreamPoint() Point {
	p = p.normalize()
	p.Predictor = sim.PredTAGESCL
	p.Width = 4
	p.FilterProb = false
	return p
}

// WarmPoint returns the canonical point of the functional prefix this
// point fast-forwards over, and whether it fast-forwards at all. It is
// the StreamPoint run functional-only up to the prefix, with the
// sampling schedule canonicalized away too: the prefix runs with the
// timing model idle, so every point with one WarmPoint retires the same
// prefix. The fast-forward is skipped when the point's own budget ends
// inside the prefix — fast-forwarding past MaxInstrs would simulate a
// different run — and for aggregate points, which never run directly.
func (p Point) WarmPoint() (Point, bool) {
	if p.WarmPrefix == 0 || p.Sharded() || (p.MaxInstrs != 0 && p.MaxInstrs <= p.WarmPrefix) {
		return Point{}, false
	}
	w := p.StreamPoint()
	w.SkipTiming = true
	w.MaxInstrs = p.WarmPrefix
	w.WarmPrefix = 0
	w.SampleWindow, w.SamplePeriod, w.SampleWarmup, w.SampleFuncWarm = 0, 0, 0, false
	return w, true
}

// RunChunk is the default RunFor granularity of the sessions the sweep
// code drives: coarse enough that the chunking cost vanishes (sessions
// retire the same stream at any chunk size, see sim.Session.RunFor),
// fine enough that a cancelled sweep or a lost lease stops a point
// promptly.
const RunChunk = 1 << 18

// runSession runs s to the end in chunks, checking ctx between them, so
// an aborting sweep (first error, or SIGINT in cmd/pbsweep) stops
// mid-point promptly. Chunking is byte-identical to a one-shot run, so
// the abort path costs completed points nothing.
func runSession(ctx context.Context, s *sim.Session, chunk uint64) error {
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.RunFor(chunk); err != nil {
			return err
		}
	}
	return nil
}

// progKey identifies one assembled program.
type progKey struct {
	workload string
	scale    int
	variant  workloads.Variant
}

type progEntry struct {
	once sync.Once
	prog *isa.Program
	err  error
}

// ProgramCache builds each distinct (workload, scale, variant) program
// once and shares it read-only across simulations; sim.Run never mutates
// a program. Safe for concurrent use: concurrent requests for the same
// key build once, the rest wait for that build.
type ProgramCache struct {
	mu sync.Mutex
	m  map[progKey]*progEntry
}

// NewProgramCache returns an empty program cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{m: make(map[progKey]*progEntry)}
}

// Get returns the cached program, building it on first use. The program
// is exactly what sim.BuildProgram returns for the same arguments.
func (c *ProgramCache) Get(workload string, scale int, variant workloads.Variant) (*isa.Program, error) {
	if scale <= 0 {
		scale = 1
	}
	k := progKey{workload, scale, variant}
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		e = &progEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.prog, e.err = sim.BuildProgram(workload, workloads.Params{Scale: scale}, variant)
	})
	return e.prog, e.err
}

// ResultCache is ignored (see Engine.Results).
//
// Deprecated: the engine keeps no result memo.
type ResultCache struct{}

// NewResultCache returns an empty result cache.
//
// Deprecated: see ResultCache.
func NewResultCache() *ResultCache { return &ResultCache{} }
