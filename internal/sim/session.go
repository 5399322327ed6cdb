package sim

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// Option configures a Session at construction (see New).
type Option func(*Config)

// WithPredictor selects the front-end branch predictor by registered
// name (see branch.Register; the default is tage-sc-l).
func WithPredictor(kind PredictorKind) Option {
	return func(c *Config) { c.Predictor = kind }
}

// WithPBS enables or disables the PBS hardware. Disabled, probabilistic
// instructions execute as regular branches the front end must predict.
func WithPBS(on bool) Option {
	return func(c *Config) { c.PBS = on }
}

// WithPBSConfig sets the PBS hardware configuration and implies
// WithPBS(true).
func WithPBSConfig(cfg core.Config) Option {
	return func(c *Config) {
		c.PBS = true
		c.PBSConfig = &cfg
	}
}

// WithCore sets the pipeline configuration (default pipeline.FourWide).
func WithCore(cfg pipeline.Config) Option {
	return func(c *Config) { c.Core = &cfg }
}

// WithProgram runs the given program instead of assembling one from the
// workload name. The session never mutates the program, so one build may
// be shared read-only by any number of concurrent sessions. With a
// program supplied, the workload name is only a label and need not be
// registered; it may be empty.
func WithProgram(p *isa.Program) Option {
	return func(c *Config) { c.Program = p }
}

// WithSeed seeds the machine RNG (default 0, which rng remaps to a fixed
// non-zero state).
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithParams sets the workload parameters.
func WithParams(p workloads.Params) Option {
	return func(c *Config) { c.Params = p }
}

// WithScale multiplies the workload's baseline iteration count.
func WithScale(scale int) Option {
	return func(c *Config) { c.Params.Scale = scale }
}

// WithVariant selects a Table I baseline build of the workload.
func WithVariant(v workloads.Variant) Option {
	return func(c *Config) { c.Variant = v }
}

// WithFilterProb excludes probabilistic branches from predictor access
// and update (the Fig 9 interference experiment).
func WithFilterProb(on bool) Option {
	return func(c *Config) { c.FilterProb = on }
}

// WithCaptureProb records the probabilistic value streams (Table III).
func WithCaptureProb(on bool) Option {
	return func(c *Config) { c.CaptureProb = on }
}

// WithMaxInstrs caps total emulation at n retired instructions
// (0 = run to completion).
func WithMaxInstrs(n uint64) Option {
	return func(c *Config) { c.MaxInstrs = n }
}

// WithoutTiming runs only the functional emulator, skipping the pipeline
// (for accuracy and randomness experiments, which need no cycle counts).
func WithoutTiming() Option {
	return func(c *Config) { c.SkipTiming = true }
}

// WithTiming sets the timing model on or off explicitly. WithTiming(true)
// overrides an inherited SkipTiming — in particular, Resume on a
// functional-only (warm-prefix) checkpoint uses it to continue with a
// full timing pipeline started cold at the checkpoint boundary.
func WithTiming(on bool) Option {
	return func(c *Config) { c.SkipTiming = !on }
}

// observer is one Observe registration.
type observer struct {
	every uint64  // sampling interval in retired instructions
	next  uint64  // absolute instruction count of the next sample
	prev  Metrics // metrics at the previous sample (for Delta)
	fn    func(Snapshot)
}

// Session is a live simulated machine. Construct one with New, advance
// it incrementally with RunFor or to completion with Run, and inspect it
// at any point with Snapshot — the machine keeps its full architectural
// and microarchitectural state between calls, so interleaved stepping
// and observation see exactly the run a one-shot sim.Run would produce.
//
// A Session is not safe for concurrent use; concurrency comes from
// running many sessions, which may share read-only programs (see
// WithProgram). Observe callbacks run synchronously on the goroutine
// that advances the session.
//
// The timing model consumes the trace synchronously on that same
// goroutine: the emulator hands it batches through emu.TraceSink and
// flushes on every return from cpu.Run, so whenever an observer or the
// caller can look, the timing model has caught up. A session never owns
// a goroutine.
type Session struct {
	cfg  Config
	name string // workload label for errors and Result

	prog *isa.Program
	cpu  *emu.CPU
	pipe *pipeline.Pipeline
	unit *core.Unit
	pred branch.Predictor

	sampler *sampler // nil: full timing (see WithSampledTiming)

	observers  []*observer
	lastDirect Metrics // previous Snapshot() sample, for its Delta
	err        error   // first run error; the session is dead once set
}

// New builds a live machine for the named workload, configured by the
// options. The workload must be registered (workloads.Register) unless
// WithProgram supplies a prebuilt program, in which case the name is
// only a label and may be empty.
func New(workload string, opts ...Option) (*Session, error) {
	cfg := Config{Workload: workload}
	for _, o := range opts {
		o(&cfg)
	}
	return newSession(cfg)
}

// newSession wires emulator, PBS unit, predictor and pipeline exactly as
// the original one-shot Run did; Run is now a thin wrapper over it.
func newSession(cfg Config) (*Session, error) {
	if err := validateSample(cfg); err != nil {
		return nil, err
	}
	prog := cfg.Program
	if prog == nil {
		var err error
		prog, err = BuildProgram(cfg.Workload, cfg.Params, cfg.Variant)
		if err != nil {
			return nil, err
		}
	}

	var unit *core.Unit
	if cfg.PBS {
		pbsCfg := core.DefaultConfig()
		if cfg.PBSConfig != nil {
			pbsCfg = *cfg.PBSConfig
		}
		var err error
		unit, err = core.NewUnit(pbsCfg)
		if err != nil {
			return nil, err
		}
	}

	cpu, err := emu.New(prog, rng.New(cfg.Seed), unit)
	if err != nil {
		return nil, err
	}
	cpu.CaptureProb = cfg.CaptureProb

	s := &Session{
		cfg:  cfg,
		name: cfg.Workload,
		prog: prog,
		cpu:  cpu,
		unit: unit,
	}
	if !cfg.SkipTiming {
		pcfg := pipeline.FourWide()
		if cfg.Core != nil {
			pcfg = *cfg.Core
		}
		pcfg.FilterProb = cfg.FilterProb
		predKind := cfg.Predictor
		if predKind == "" {
			predKind = PredTAGESCL
		}
		pred, err := NewPredictor(predKind)
		if err != nil {
			return nil, err
		}
		pipe, err := pipeline.New(pcfg, prog, pred)
		if err != nil {
			return nil, err
		}
		s.pipe = pipe
		s.pred = pred
		cpu.SetTraceSink(pipe)
		if cfg.Sample != nil {
			sp, err := newSampler(*cfg.Sample)
			if err != nil {
				return nil, err
			}
			s.sampler = sp
		}
	}
	return s, nil
}

// Program returns the program the session executes.
func (s *Session) Program() *isa.Program { return s.prog }

// Instructions returns the retired dynamic instruction count so far.
func (s *Session) Instructions() uint64 { return s.cpu.Stats().Instructions }

// Halted reports whether the program has executed HALT.
func (s *Session) Halted() bool { return s.cpu.Halted() }

// Done reports whether the machine can run no further: the program
// halted, the WithMaxInstrs budget is exhausted, or a previous run
// faulted.
func (s *Session) Done() bool {
	if s.err != nil || s.cpu.Halted() {
		return true
	}
	return s.cfg.MaxInstrs > 0 && s.Instructions() >= s.cfg.MaxInstrs
}

// Err returns the fault that stopped the session, if any.
func (s *Session) Err() error { return s.err }

// Observe registers fn to be called synchronously every `every` retired
// instructions while the session advances, with a Snapshot whose Delta
// is relative to this observer's previous sample. Observers registered
// mid-run sample relative to the current position. An observer does not
// fire on the final partial interval; take a closing Snapshot after the
// run for that. Multiple observers may be registered; each keeps its own
// interval phase and delta state.
func (s *Session) Observe(every uint64, fn func(Snapshot)) error {
	if every == 0 {
		return fmt.Errorf("sim: Observe interval must be positive")
	}
	if fn == nil {
		return fmt.Errorf("sim: Observe with nil callback")
	}
	s.observers = append(s.observers, &observer{
		every: every,
		next:  s.Instructions() + every,
		prev:  s.collect(),
		fn:    fn,
	})
	return nil
}

// collect builds the unified metrics view of the machine right now.
// Every caller sits between cpu.Run calls, where the trace is flushed,
// so timing counters are always caught up here.
func (s *Session) collect() Metrics {
	var t pipeline.Metrics
	if s.pipe != nil {
		t = s.pipe.Metrics()
	}
	var p core.Stats
	if s.unit != nil {
		p = s.unit.Stats()
	}
	m := mergeMetrics(s.cpu.Stats(), t, p)
	if s.sampler != nil {
		m.Sampled = s.sampler.snapshot()
	}
	return m
}

// Snapshot returns the cumulative metrics plus the delta since the
// previous direct Snapshot call (the full totals on the first call).
// Valid at any point, including mid-run from an Observe callback.
func (s *Session) Snapshot() Snapshot {
	total := s.collect()
	// On the first call lastDirect is the zero Metrics, so the delta is
	// the full totals, as the Snapshot contract promises.
	snap := Snapshot{Total: total, Delta: total.Delta(s.lastDirect)}
	s.lastDirect = total
	return snap
}

// RunFor advances the machine by up to n retired instructions, firing
// due observers along the way, and reports whether the machine is done
// (halted, out of budget, or faulted). Running a session in chunks of
// any size retires the same instruction stream — and therefore produces
// byte-identical metrics and outputs — as a single Run.
func (s *Session) RunFor(n uint64) (bool, error) {
	if s.err != nil {
		return true, s.err
	}
	if n == 0 {
		return s.Done(), nil
	}
	target := s.Instructions() + n
	if target < n {
		target = 0 // overflowed: n exceeds any possible remainder, run to completion
	}
	err := s.advance(target)
	return s.Done(), err
}

// Run advances the machine until the program halts or the WithMaxInstrs
// budget is exhausted, firing due observers along the way.
func (s *Session) Run() error {
	if s.err != nil {
		return s.err
	}
	return s.advance(0)
}

// advance executes until the absolute retired-instruction count reaches
// target (0 = no target), the configured MaxInstrs cap, or HALT,
// chunking the emulator so observers fire exactly on their interval
// boundaries. An Observe callback may itself advance the session (a
// nested RunFor); the outer loop then resumes from wherever the callback
// left the machine.
func (s *Session) advance(target uint64) error {
	limit := target
	if s.cfg.MaxInstrs > 0 && (limit == 0 || s.cfg.MaxInstrs < limit) {
		limit = s.cfg.MaxInstrs
	}
	if s.cpu.Halted() {
		return nil
	}
	if s.sampler != nil {
		// Reconcile once more on the way out so a window that closes
		// exactly where the run ends (halt or budget) joins the
		// population. Idempotent with the loop-top reconcile.
		defer func() {
			if s.err == nil {
				s.syncSample(s.cpu.Stats().Instructions)
			}
		}()
	}
	for !s.cpu.Halted() {
		cur := s.cpu.Stats().Instructions
		if s.sampler != nil {
			// Reconcile before the limit check so a window closing exactly
			// at the limit is recorded on this advance, not the next.
			s.syncSample(cur)
		}
		if limit > 0 && cur >= limit {
			return nil
		}
		// Stop at the earliest due observer so the sample lands exactly on
		// its boundary.
		stop := limit
		for _, ob := range s.observers {
			if stop == 0 || ob.next < stop {
				stop = ob.next
			}
		}
		if s.sampler != nil {
			// Never cross a schedule edge inside one emulator chunk: every
			// retired interval then belongs wholly to one phase, which keeps
			// the accounting exact and the phase switches on-boundary.
			if nb := s.sampler.cfg.NextBoundary(cur); stop == 0 || nb < stop {
				stop = nb
			}
		}
		if err := s.cpu.Run(stop); err != nil {
			if s.name != "" {
				err = fmt.Errorf("sim: %s: %w", s.name, err)
			} else {
				err = fmt.Errorf("sim: %w", err)
			}
			s.err = err
			return err
		}
		prev := cur
		cur = s.cpu.Stats().Instructions
		if s.sampler != nil {
			s.sampler.account(prev, cur-prev)
		}
		for _, ob := range s.observers {
			if ob.next > cur {
				continue // halted before the boundary: no partial sample
			}
			total := s.collect()
			snap := Snapshot{Total: total, Delta: total.Delta(ob.prev)}
			ob.prev = total
			ob.next += ob.every
			ob.fn(snap)
		}
	}
	return nil
}

// Result bundles the run's products in the shape the one-shot Run API
// returns. Valid at any point; a caller that stops early via RunFor gets
// the partial outputs produced so far.
func (s *Session) Result() *Result {
	res := &Result{
		Workload:  s.name,
		Program:   s.prog,
		Emu:       s.cpu.Stats(),
		Outputs:   s.cpu.Output(),
		Generated: s.cpu.Generated,
		Consumed:  s.cpu.Consumed,
	}
	if s.pipe != nil {
		res.Timing = s.pipe.Metrics()
	}
	if s.unit != nil {
		res.PBSStats = s.unit.Stats()
	}
	if s.sampler != nil {
		res.Sampled = s.sampler.estimate()
	}
	return res
}
