package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Engine executes sweep points on a bounded worker pool. The zero value
// runs without caching; NewEngine returns one with the program and result
// caches enabled. An Engine is safe for concurrent use.
type Engine struct {
	// Programs caches assembled programs across runs; nil builds each
	// point's program from scratch.
	Programs *ProgramCache
	// Results memoizes completed points across runs, so experiments that
	// revisit a configuration simulate it once; nil disables memoization.
	// Points that capture probabilistic value streams are never memoized
	// (the streams are large).
	Results *ResultCache
	// OnProgress, when set, is called after each completed point with the
	// number of completed points and the total. Calls may arrive
	// concurrently from several workers.
	OnProgress func(done, total int)

	// warm memoizes functional warm-prefix checkpoints by canonical warm
	// point (see Point.WarmPoint), keyed like the result memos so repeat
	// sweeps on one engine reuse the same warm-ups. Unlike Programs and
	// Results it is always on — sharing the prefix run across a group is
	// what WarmPrefix means, not an optional cache. Entries singleflight:
	// concurrent points of one group run the prefix exactly once, the
	// rest wait for that run. Lazily built; guarded by warmMu.
	warmMu sync.Mutex
	warm   map[Point]*warmEntry
}

// warmEntry is one singleflight slot of the warm-checkpoint memo. After
// once completes, ck == nil with err == nil means the program halted
// inside the would-be prefix: there is no shared suffix to fork, and the
// group's points run cold instead.
type warmEntry struct {
	once sync.Once
	ck   *sim.Checkpoint
	err  error
}

// NewEngine returns an engine with program and result caching enabled.
func NewEngine() *Engine {
	return &Engine{Programs: NewProgramCache(), Results: NewResultCache()}
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
// into the aggregate record the engine memoizes for a sharded point. The
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
// Key.Seeds) fans out into one shard job per seed, so a lone multi-seed
// point saturates the pool; its shards are ordinary single-seed points
// that hit the shared result memo, and their completed results merge
// into an Aggregate in seed order. The first error aborts the sweep: no
// further jobs are dispatched, in-flight warm-prefix runs are cancelled,
// and the error is returned once in-flight jobs drain — together with
// the results of the points that did complete (in point order, fully
// merged aggregates only), so an interrupted sweep can still flush what
// it finished. Points with a WarmPrefix fork from a shared functional
// checkpoint of their group's prefix, run once per group (see
// Grid.WarmPrefix). Results are positionally deterministic — the same
// points produce the same results at any parallelism.
func (e *Engine) RunPoints(ctx context.Context, pts []Point, parallel int) (Results, error) {
	if len(pts) == 0 {
		return nil, ctx.Err()
	}

	// Expand the points into shard-level jobs. shard -1 is a plain
	// single-seed point; otherwise the job runs seedsOf[point][shard] of
	// an aggregate point. Aggregates already in the memo skip scheduling
	// entirely.
	type job struct{ point, shard int }
	norm := make([]Point, len(pts))
	var jobList []job
	sims := make([]*sim.Result, len(pts))
	aggs := make([]*Aggregate, len(pts))
	shardSims := make([][]*sim.Result, len(pts))
	seedsOf := make([][]uint64, len(pts))
	for i, p := range pts {
		p = p.normalize()
		norm[i] = p
		if !p.Sharded() {
			jobList = append(jobList, job{i, -1})
			continue
		}
		if p.Seed != 0 {
			return nil, fmt.Errorf("sweep: aggregate point %s sets both Seed and Seeds", p)
		}
		seeds := p.Key.Seeds.Seeds()
		if len(seeds) == 0 {
			return nil, fmt.Errorf("sweep: aggregate point %s has a malformed seed set %q", p, p.Key.Seeds)
		}
		seedsOf[i] = seeds
		if e.Results != nil && !p.CaptureProb {
			if agg, ok := e.Results.getAgg(p); ok {
				aggs[i] = agg
				continue
			}
		}
		shardSims[i] = make([]*sim.Result, len(seeds))
		for j := range seeds {
			jobList = append(jobList, job{i, j})
		}
	}

	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(jobList) {
		parallel = len(jobList)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
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

	jobs := make(chan job)
	for range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if ctx.Err() != nil {
					continue // drain without running after an abort
				}
				p := norm[jb.point]
				if jb.shard >= 0 {
					p = p.Shard(seedsOf[jb.point][jb.shard])
				}
				res, err := e.runPoint(ctx, p)
				if err != nil {
					// No "sweep:" prefix: the wrapped error carries its
					// package prefix already.
					fail(fmt.Errorf("%s: %w", p, err))
					continue
				}
				if jb.shard >= 0 {
					shardSims[jb.point][jb.shard] = res
				} else {
					sims[jb.point] = res
				}
				if e.OnProgress != nil {
					e.OnProgress(int(done.Add(1)), len(jobList))
				}
			}
		}()
	}
dispatch:
	for _, jb := range jobList {
		select {
		case jobs <- jb:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// Merge completed shards, in seed order; the merge is a pure function
	// of the per-seed results, so re-merging memoized shards is
	// idempotent. On an aborted sweep only fully sharded points merge —
	// a partial seed set would summarize a different study.
	for i, shards := range shardSims {
		if shards == nil {
			continue
		}
		complete := true
		for _, s := range shards {
			if s == nil {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		agg := NewAggregate(seedsOf[i], shards)
		if e.Results != nil && !norm[i].CaptureProb {
			e.Results.putAgg(norm[i], agg)
		}
		aggs[i] = agg
	}
	if err := firstErr; err != nil || ctx.Err() != nil {
		if err == nil {
			err = ctx.Err()
		}
		// Return the completed points alongside the error, in point order,
		// so an interrupted batch (SIGINT in cmd/pbsweep) can still flush
		// the records it paid for. Unfinished points are simply absent.
		var partial Results
		for i := range norm {
			if sims[i] != nil || aggs[i] != nil {
				partial = append(partial, Result{Point: norm[i], Sim: sims[i], Agg: aggs[i]})
			}
		}
		return partial, err
	}
	out := make(Results, len(pts))
	for i := range norm {
		out[i] = Result{Point: norm[i], Sim: sims[i], Agg: aggs[i]}
	}
	return out, nil
}

// runPoint executes one point through a sim.Session, consulting the
// caches. Cached programs are shared read-only across the concurrently
// running sessions of the worker pool. Sessions run in chunks with
// a cancellation check between them, so an aborting sweep (first error,
// or SIGINT in cmd/pbsweep) stops mid-point promptly; chunking is
// byte-identical to a one-shot run (see sim.Session.RunFor), so the
// abort path costs completed points nothing.
func (e *Engine) runPoint(ctx context.Context, p Point) (*sim.Result, error) {
	p = p.normalize()
	memoize := e.Results != nil && !p.CaptureProb
	if memoize {
		if res, ok := e.Results.get(p); ok {
			return res, nil
		}
	}
	opts, err := p.Options()
	if err != nil {
		return nil, err
	}
	if e.Programs != nil {
		prog, err := e.Programs.Get(p.Workload, p.Scale, p.Variant)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sim.WithProgram(prog))
	}
	var s *sim.Session
	if wp, ok := p.WarmPoint(); ok {
		ck, err := e.warmCheckpoint(ctx, wp)
		if err != nil {
			return nil, fmt.Errorf("warm prefix %s: %w", wp, err)
		}
		if ck != nil {
			// Fork the point from the group's shared functional prefix.
			// The point's own options land on top of the checkpoint's
			// embedded config, turning the timing model (back) on where
			// the point wants it — it starts cold at the boundary — and
			// restoring the point's predictor, width, filter setting and
			// instruction budget.
			s, err = sim.Resume(ck, opts...)
			if err != nil {
				return nil, err
			}
		}
	}
	if s == nil {
		s, err = sim.New(p.Workload, opts...)
		if err != nil {
			return nil, err
		}
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.RunFor(warmChunk); err != nil {
			return nil, err
		}
	}
	res := s.Result()
	if memoize {
		e.Results.put(p, res)
	}
	return res, nil
}

// WarmPoint returns the canonical point whose functional checkpoint this
// point forks from, and whether warm-prefix reuse applies at all. The
// timing-only axes — predictor, core width, predictor filtering — are
// canonicalized away, because emulation never consumes timing results:
// points differing only there produce the same retired-instruction
// stream and so share one warm-up. What remains (workload, variant,
// scale, seed, PBS hardware, value capture) is exactly what shapes
// functional state. Reuse is skipped when the point's own budget ends
// inside the prefix — fast-forwarding past MaxInstrs would simulate a
// different run — and for aggregate points, which never run directly.
// Exported so the sweep service's workers group points around the same
// shared prefixes the in-process engine does.
func (p Point) WarmPoint() (Point, bool) {
	if p.WarmPrefix == 0 || p.Sharded() || (p.MaxInstrs != 0 && p.MaxInstrs <= p.WarmPrefix) {
		return Point{}, false
	}
	w := p.normalize()
	w.Predictor = sim.PredTAGESCL
	w.Width = 4
	w.FilterProb = false
	w.SkipTiming = true
	w.MaxInstrs = p.WarmPrefix
	w.WarmPrefix = 0
	// The sampling schedule is timing-only too: the prefix runs with the
	// timing model off, so sampled and full points of one functional
	// group share a single warm checkpoint.
	w.SampleWindow, w.SamplePeriod, w.SampleWarmup, w.SampleFuncWarm = 0, 0, 0, false
	return w, true
}

// warmCheckpoint returns the group's shared prefix checkpoint, running
// the warm-up on the first request and parking concurrent requesters on
// that run. A checkpoint is immutable bytes, so any number of points
// fork from one entry concurrently. A warm-up aborted by sweep
// cancellation is evicted rather than memoized: the abort belongs to
// that sweep, and a later Run on the same engine must redo the work, not
// inherit the stale context's error.
func (e *Engine) warmCheckpoint(ctx context.Context, wp Point) (*sim.Checkpoint, error) {
	e.warmMu.Lock()
	if e.warm == nil {
		e.warm = make(map[Point]*warmEntry)
	}
	ent := e.warm[wp]
	if ent == nil {
		ent = &warmEntry{}
		e.warm[wp] = ent
	}
	e.warmMu.Unlock()
	ent.once.Do(func() {
		ent.ck, ent.err = e.runWarmPrefix(ctx, wp)
	})
	if ent.err != nil && (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) {
		e.warmMu.Lock()
		if e.warm[wp] == ent {
			delete(e.warm, wp)
		}
		e.warmMu.Unlock()
	}
	return ent.ck, ent.err
}

// warmChunk is the RunFor granularity of a warm-up run: coarse enough
// that the chunking cost vanishes, fine enough that a first-error abort
// cancels an in-flight warm-up promptly.
const warmChunk = 1 << 18

// runWarmPrefix executes the canonical warm point's functional prefix
// and checkpoints it, checking for sweep cancellation between chunks.
// A nil, nil return means the program halted before the prefix ended:
// there is no suffix to share, and the caller runs its points cold.
func (e *Engine) runWarmPrefix(ctx context.Context, wp Point) (*sim.Checkpoint, error) {
	opts, err := wp.Options()
	if err != nil {
		return nil, err
	}
	if e.Programs != nil {
		prog, err := e.Programs.Get(wp.Workload, wp.Scale, wp.Variant)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sim.WithProgram(prog))
	}
	s, err := sim.New(wp.Workload, opts...)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := s.RunFor(warmChunk); err != nil {
			return nil, err
		}
	}
	if s.Halted() {
		return nil, nil
	}
	return s.Checkpoint()
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

// ResultCache memoizes completed simulations by normalized point, and
// merged aggregates by normalized aggregate point. Results are
// deterministic functions of their point, so a memoized result is
// indistinguishable from a fresh run; callers must treat them as
// read-only, as they are shared. Aggregates memoize independently of
// their shards: an aggregate built partly from memoized shards merges to
// the same record as one built fresh, so the two layers never disagree.
type ResultCache struct {
	mu   sync.Mutex
	m    map[Point]*sim.Result
	aggs map[Point]*Aggregate
}

// NewResultCache returns an empty result cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[Point]*sim.Result), aggs: make(map[Point]*Aggregate)}
}

func (c *ResultCache) get(p Point) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[p]
	return res, ok
}

func (c *ResultCache) put(p Point, res *sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[p] = res
}

func (c *ResultCache) getAgg(p Point) (*Aggregate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg, ok := c.aggs[p]
	return agg, ok
}

func (c *ResultCache) putAgg(p Point, agg *Aggregate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggs[p] = agg
}
