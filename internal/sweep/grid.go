// Package sweep is the batch-simulation engine behind the paper's
// evaluation. It expands a declarative grid (workloads × predictors × PBS
// on/off × core width × seeds × variants) into simulation configurations,
// executes them on a bounded worker pool that stops dispatching on the
// first error, caches assembled programs so each distinct (workload,
// scale, variant) is built once and shared read-only across runs, and
// returns structured per-point results that serialize to JSON or CSV.
//
// internal/experiments regenerates every figure and table of the paper
// through this engine, and cmd/pbsweep exposes it on the command line.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Grid declares a batch of simulations as the cross product of its axes.
// Empty axes take the documented defaults, so the zero value with one
// field set is a useful sweep. The JSON encoding of a Grid is the
// cmd/pbsweep specification-file format.
type Grid struct {
	// Workloads are benchmark names (workloads.Names); empty means all.
	Workloads []string `json:"workloads,omitempty"`
	// Predictors are front-end predictors; empty means {tage-sc-l}.
	Predictors []sim.PredictorKind `json:"predictors,omitempty"`
	// PBS lists the PBS hardware settings to sweep; empty means {false}.
	PBS []bool `json:"pbs,omitempty"`
	// Widths are core widths, 4 or 8; empty means {4}.
	Widths []int `json:"widths,omitempty"`
	// Seeds are machine RNG seeds; empty means {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Variants are program builds; empty means {plain}.
	Variants []workloads.Variant `json:"variants,omitempty"`
	// SkipInapplicable drops (workload, variant) combinations the workload
	// does not implement (the × marks of Table I) instead of failing.
	SkipInapplicable bool `json:"skip_inapplicable,omitempty"`
	// FilterProb lists predictor-filter settings (the Fig 9 interference
	// experiment); empty means {false}.
	FilterProb []bool `json:"filter_prob,omitempty"`
	// Scale multiplies workload iteration counts; 0 means 1.
	Scale int `json:"scale,omitempty"`
	// SkipTiming runs only the functional emulator (accuracy and
	// randomness experiments need no pipeline).
	SkipTiming bool `json:"skip_timing,omitempty"`
	// CaptureProb records the probabilistic value streams (Table III).
	CaptureProb bool `json:"capture_prob,omitempty"`
	// MaxInstrs caps emulation per point; 0 runs to completion.
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	// WarmPrefix fast-forwards each point over its first N instructions
	// using a shared functional checkpoint: points that agree on the
	// functional coordinates (workload, program variant, scale, seed, PBS
	// hardware) run the prefix once per group with the timing model off,
	// checkpoint, and every member forks from the restored state. The
	// emulator's trace never depends on the timing-only axes (predictor,
	// width, predictor filtering), so functional results are exactly those
	// of a cold run; timing metrics cover only the post-prefix suffix —
	// the SimPoint-style measured region. 0 runs every point cold.
	WarmPrefix uint64 `json:"warm_prefix,omitempty"`
	// SampleWindow, SamplePeriod and SampleWarmup put every point of the
	// grid in SMARTS-style sampled-timing mode (see sim.WithSampledTiming):
	// per SamplePeriod retired instructions one SampleWindow-instruction
	// window is measured in detail, preceded by SampleWarmup instructions
	// of detailed warming, with the rest fast-forwarded on the emulator's
	// untraced fast path. A non-zero SamplePeriod enables sampling and the
	// triple must satisfy sample.Config.Validate; sampled points report
	// the bounded-error IPC/MPKI estimate (mean + 95% CI) in place of
	// full-timing metrics. Incompatible with SkipTiming.
	SampleWindow uint64 `json:"sample_window,omitempty"`
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleWarmup uint64 `json:"sample_warmup,omitempty"`
	// SampleFuncWarm keeps caches and predictor functionally warm across
	// fast-forward gaps (slower, but removes staleness bias on workloads
	// whose windows depend on long-range state; see sample.Config).
	SampleFuncWarm bool `json:"sample_func_warm,omitempty"`
	// Parallel bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallel int `json:"parallel,omitempty"`
	// Deprecated: ignored; timing is always synchronous.
	SyncTiming bool `json:"sync_timing,omitempty"`
	// ShardSeeds collapses the Seeds axis: instead of one grid point per
	// seed, each coordinate becomes a single aggregate point carrying the
	// whole seed set, which the engine fans out into per-seed shard jobs
	// and merges into an Aggregate (per-seed results plus mean/95%-CI
	// summaries). A lone multi-seed figure point then spreads across the
	// full worker pool.
	ShardSeeds bool `json:"shard_seeds,omitempty"`
}

// SeedSet is the canonical identity of an ordered seed list: the seeds
// in run order, comma-joined. It is a comparable scalar so it can live
// in a Key (and thus in result-cache map keys). Order is significant —
// shards run and merge in exactly this order, which is what makes a
// sharded aggregate byte-identical to a sequential loop over the same
// seeds.
type SeedSet string

// MakeSeedSet builds the canonical identity of the seed list.
func MakeSeedSet(seeds []uint64) SeedSet {
	var sb strings.Builder
	for i, s := range seeds {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(s, 10))
	}
	return SeedSet(sb.String())
}

// Seeds decodes the set back into its ordered seed list (nil for the
// empty set). Malformed entries cannot arise from MakeSeedSet; a
// hand-built set with one fails decoding as a zero seed.
func (s SeedSet) Seeds() []uint64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(string(s), ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

// Count returns the number of seeds in the set.
func (s SeedSet) Count() int {
	if s == "" {
		return 0
	}
	return strings.Count(string(s), ",") + 1
}

// Key identifies one point of a sweep along the grid axes, for looking a
// result up in a Results set. Zero-value fields mean the defaults (width
// 4, the tage-sc-l predictor, the plain variant). Exactly one of Seed
// and Seeds is meaningful: a key with a non-empty Seeds is an aggregate
// point — the identity of a whole multi-seed study — and its Seed must
// be zero. The JSON encoding (zero-valued axes omitted, so equal keys
// encode identically after normalization) is the wire form the sweep
// service exchanges; String is the canonical scalar identity.
type Key struct {
	Workload   string            `json:"workload"`
	Predictor  sim.PredictorKind `json:"predictor,omitempty"`
	PBS        bool              `json:"pbs,omitempty"`
	Width      int               `json:"width,omitempty"`
	Seed       uint64            `json:"seed,omitempty"`
	Seeds      SeedSet           `json:"seeds,omitempty"`
	Variant    workloads.Variant `json:"variant,omitempty"`
	FilterProb bool              `json:"filter_prob,omitempty"`
}

// Sharded reports whether the key identifies an aggregate (multi-seed)
// point.
func (k Key) Sharded() bool { return k.Seeds != "" }

// String returns the canonical form of the key: every axis spelled out
// at its normalized value, in a fixed order. Two keys have the same
// canonical form exactly when they identify the same point, which makes
// the form an authoritative map/store identity — the content-addressed
// result store and the wire protocol key on it, not on Go map equality.
func (k Key) String() string {
	k = k.normalize()
	seed := "seed=" + strconv.FormatUint(k.Seed, 10)
	if k.Sharded() {
		seed = "seeds=" + string(k.Seeds)
	}
	return fmt.Sprintf("workload=%s,predictor=%s,pbs=%t,width=%d,%s,variant=%s,filter_prob=%t",
		k.Workload, k.Predictor, k.PBS, k.Width, seed, k.Variant, k.FilterProb)
}

func (k Key) normalize() Key {
	if k.Width == 0 {
		k.Width = 4
	}
	if k.Predictor == "" {
		k.Predictor = sim.PredTAGESCL
	}
	return k
}

// Point is one fully expanded grid coordinate: a Key plus the run
// parameters every point of the grid shares. Its JSON encoding (the Key
// fields inlined, zero-valued parameters omitted) round-trips exactly:
// decoding the encoding of a normalized point yields that point, which
// is what lets the sweep service ship points to workers as specs.
type Point struct {
	Key
	Scale       int    `json:"scale,omitempty"`
	SkipTiming  bool   `json:"skip_timing,omitempty"`
	CaptureProb bool   `json:"capture_prob,omitempty"`
	MaxInstrs   uint64 `json:"max_instrs,omitempty"`
	// WarmPrefix is part of the point's identity, not just scheduling: a
	// warm-forked run reports timing only over the post-prefix suffix, so
	// it must never share a memo entry with a cold run of the same Key.
	WarmPrefix uint64 `json:"warm_prefix,omitempty"`
	// The sampling schedule (see Grid) is likewise identity: a sampled
	// run's metrics are an estimate over measured windows, never
	// interchangeable with a full-timing result of the same Key.
	SampleWindow   uint64 `json:"sample_window,omitempty"`
	SamplePeriod   uint64 `json:"sample_period,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`
	SampleFuncWarm bool   `json:"sample_func_warm,omitempty"`
}

// SampleConfig returns the point's sampling schedule and whether
// sampled timing is enabled at all (SamplePeriod non-zero).
func (p Point) SampleConfig() (sample.Config, bool) {
	if p.SamplePeriod == 0 {
		return sample.Config{}, false
	}
	return sample.Config{
		Window:   p.SampleWindow,
		Period:   p.SamplePeriod,
		Warmup:   p.SampleWarmup,
		FuncWarm: p.SampleFuncWarm,
	}, true
}

func (p Point) normalize() Point {
	p.Key = p.Key.normalize()
	if p.Scale <= 0 {
		p.Scale = 1
	}
	return p
}

// Canonical returns the canonical form of the whole point: the Key's
// canonical form plus the run parameters, all normalized. Like
// Key.String it is an authoritative identity — two points share it
// exactly when the engine would share one result-memo entry between
// them — and it is the preimage the sweep service's content-addressed
// store hashes.
func (p Point) Canonical() string {
	p = p.normalize()
	c := fmt.Sprintf("%s,scale=%d,skip_timing=%t,capture_prob=%t,max_instrs=%d,warm_prefix=%d",
		p.Key.String(), p.Scale, p.SkipTiming, p.CaptureProb, p.MaxInstrs, p.WarmPrefix)
	if p.SamplePeriod > 0 {
		// Appended only when sampling is on, so every pre-sampling
		// identity (and its content address in the sweep service's store)
		// is unchanged. A sampled point can never collide with a full
		// point: full points never carry the suffix.
		c += fmt.Sprintf(",sample_window=%d,sample_period=%d,sample_warmup=%d,sample_func_warm=%t",
			p.SampleWindow, p.SamplePeriod, p.SampleWarmup, p.SampleFuncWarm)
	}
	return c
}

func (p Point) String() string {
	seed := fmt.Sprintf("seed=%d", p.Seed)
	if p.Sharded() {
		seed = "seeds=" + string(p.Seeds)
	}
	s := fmt.Sprintf("%s/%s/pbs=%v/%d-wide/%s", p.Workload, p.Predictor, p.PBS, p.Width, seed)
	if p.Variant != workloads.VariantPlain {
		s += "/" + p.Variant.String()
	}
	if p.FilterProb {
		s += "/filter-prob"
	}
	if p.WarmPrefix > 0 {
		s += fmt.Sprintf("/warm=%d", p.WarmPrefix)
	}
	if p.SamplePeriod > 0 {
		s += fmt.Sprintf("/sampled=%d@%d", p.SampleWindow, p.SamplePeriod)
	}
	return s
}

// Shard returns the single-seed point executing one shard of an
// aggregate point: the same coordinates with the given seed in place of
// the seed set.
func (p Point) Shard(seed uint64) Point {
	p.Key.Seeds = ""
	p.Key.Seed = seed
	return p
}

// Options translates the point into session options for sim.New; append
// sim.WithProgram to run a cached program build. Aggregate points do not
// run directly — the engine shards them — so they have no options.
func (p Point) Options() ([]sim.Option, error) {
	if p.Sharded() {
		return nil, fmt.Errorf("sweep: aggregate point %s cannot run directly (the engine shards it per seed)", p)
	}
	// Spare capacity for the options the engine appends (the cached
	// program) so a hot sweep loop never regrows the slice.
	opts := make([]sim.Option, 0, 12)
	opts = append(opts,
		sim.WithScale(p.Scale),
		sim.WithSeed(p.Seed),
		sim.WithPredictor(p.Predictor),
		sim.WithVariant(p.Variant),
		sim.WithPBS(p.PBS),
		sim.WithFilterProb(p.FilterProb),
		sim.WithCaptureProb(p.CaptureProb),
		sim.WithMaxInstrs(p.MaxInstrs),
		// Timing is set explicitly both ways: when the engine resumes the
		// point from a functional warm checkpoint (whose embedded config
		// has SkipTiming on), the option must override it back on.
		sim.WithTiming(!p.SkipTiming),
	)
	if sc, ok := p.SampleConfig(); ok {
		opts = append(opts, sim.WithSampledTiming(sc))
	}
	switch p.Width {
	case 4:
		// pipeline.FourWide is the sim default.
	case 8:
		opts = append(opts, sim.WithCore(pipeline.EightWide()))
	default:
		return nil, fmt.Errorf("sweep: unsupported core width %d (want 4 or 8)", p.Width)
	}
	return opts, nil
}

// Points expands and validates the grid. The expansion order is
// deterministic: workloads outermost, then variants, predictors, widths,
// PBS, filter settings, and seeds innermost.
func (g Grid) Points() ([]Point, error) {
	names := g.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	byName := make(map[string]*workloads.Workload, len(names))
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		byName[name] = w
	}
	preds := g.Predictors
	if len(preds) == 0 {
		preds = []sim.PredictorKind{sim.PredTAGESCL}
	}
	for _, pred := range preds {
		if _, err := sim.NewPredictor(pred); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	pbs := g.PBS
	if len(pbs) == 0 {
		pbs = []bool{false}
	}
	widths := g.Widths
	if len(widths) == 0 {
		widths = []int{4}
	}
	for _, w := range widths {
		if w != 4 && w != 8 {
			return nil, fmt.Errorf("sweep: unsupported core width %d (want 4 or 8)", w)
		}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	variants := g.Variants
	if len(variants) == 0 {
		variants = []workloads.Variant{workloads.VariantPlain}
	}
	filter := g.FilterProb
	if len(filter) == 0 {
		filter = []bool{false}
	}
	scale := g.Scale
	if scale <= 0 {
		scale = 1
	}
	if g.SamplePeriod > 0 {
		if g.SkipTiming {
			return nil, fmt.Errorf("sweep: sampled timing needs the timing model (incompatible with skip_timing)")
		}
		sc := sample.Config{Window: g.SampleWindow, Period: g.SamplePeriod, Warmup: g.SampleWarmup}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	} else if g.SampleWindow > 0 || g.SampleWarmup > 0 || g.SampleFuncWarm {
		return nil, fmt.Errorf("sweep: sample_window/sample_warmup/sample_func_warm need a non-zero sample_period")
	}

	var pts []Point
	for _, name := range names {
		for _, variant := range variants {
			if variant != workloads.VariantPlain && byName[name].BuildVariant[variant] == nil {
				if g.SkipInapplicable {
					continue
				}
				return nil, fmt.Errorf("sweep: workload %s has no %v variant (set SkipInapplicable to drop it)", name, variant)
			}
			for _, pred := range preds {
				for _, width := range widths {
					for _, on := range pbs {
						for _, filt := range filter {
							key := Key{
								Workload:   name,
								Predictor:  pred,
								PBS:        on,
								Width:      width,
								Variant:    variant,
								FilterProb: filt,
							}
							add := func(k Key) {
								pts = append(pts, Point{
									Key:            k.normalize(),
									Scale:          scale,
									SkipTiming:     g.SkipTiming,
									CaptureProb:    g.CaptureProb,
									MaxInstrs:      g.MaxInstrs,
									WarmPrefix:     g.WarmPrefix,
									SampleWindow:   g.SampleWindow,
									SamplePeriod:   g.SamplePeriod,
									SampleWarmup:   g.SampleWarmup,
									SampleFuncWarm: g.SampleFuncWarm,
								})
							}
							if g.ShardSeeds {
								// One aggregate point carrying the whole
								// seed set instead of a point per seed.
								key.Seeds = MakeSeedSet(seeds)
								add(key)
								continue
							}
							for _, seed := range seeds {
								key.Seed = seed
								add(key)
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}
