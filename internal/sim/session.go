package sim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// Option configures a Session at construction (see New).
type Option func(*Config)

// WithPredictor selects the front-end branch predictor by name (see
// branch.Names; the default is tage-sc-l).
func WithPredictor(kind PredictorKind) Option {
	return func(c *Config) { c.Predictor = kind }
}

// WithPBS enables or disables the PBS hardware. Disabled, probabilistic
// instructions execute as regular branches the front end must predict.
func WithPBS(on bool) Option {
	return func(c *Config) { c.PBS = on }
}

// WithCore sets the pipeline configuration (default pipeline.FourWide).
func WithCore(cfg pipeline.Config) Option {
	return func(c *Config) { c.Core = &cfg }
}

// WithProgram runs the given program instead of assembling one from the
// workload name. The session never mutates the program, so one build may
// be shared read-only by any number of concurrent sessions. With a
// program supplied, the workload name is only a label and need not name
// a workload; it may be empty.
func WithProgram(p *isa.Program) Option {
	return func(c *Config) { c.Program = p }
}

// WithSeed seeds the machine RNG (default 0, which rng remaps to a fixed
// non-zero state).
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
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

// Session is a live simulated machine. Construct one with New, advance
// it incrementally with RunFor or to completion with Run, and inspect it
// at any point with Snapshot — the machine keeps its full architectural
// and microarchitectural state between calls, so interleaved stepping
// and observation see exactly the run a one-shot sim.Run would produce.
// An interval series is RunFor(interval) steps, each followed by a
// Snapshot; the interval's rates come from the difference of two
// snapshots' Timing (see pipeline.Metrics.Delta).
//
// A Session is not safe for concurrent use; concurrency comes from
// running many sessions, which may share read-only programs (see
// WithProgram).
//
// The timing model consumes the trace synchronously on the goroutine
// that advances the session: the emulator hands it batches through
// emu.TraceSink and flushes on every return from cpu.Run, so whenever
// the caller can look, the timing model has caught up. A session never
// owns a goroutine.
//
// A session may carry several timing models over one emulator (see
// AddMember): timing never feeds back into emulation, so configurations
// that differ only in predictor, core or predictor filtering retire the
// same instruction stream, and one emulation can feed them all. Members
// that also agree on their event key share one miss-event stage
// (pipeline.Events), so the caches and the predictor run once for all
// of them.
//
// Close hands the session's machine to the next session the process
// builds (see Close); sim.Run closes its own.
type Session struct {
	origin Config // the configuration New's options applied to (see AddMember)
	name   string // workload label for errors and Result

	prog *isa.Program
	cpu  *emu.CPU
	unit *core.Unit

	members []*member // timing models, in AddMember order; never empty
	timing  *timing   // the members' stages and pipelines; nil: functional only
	sched   *schedule // shared sampling schedule; nil: full timing

	// started records that the session has run timed (RunFor, Run) or
	// was resumed; it closes the session to new members and FastForward.
	started bool

	err error // first run error, or errClosed; the session is dead once set
}

// errClosed is the error of every call on a closed session.
var errClosed = errors.New("sim: the session is closed")

// member is one timing model of a session: its configuration, its
// pipeline (nil on a functional-only, WithoutTiming, session) and its
// window populations on a sampled run.
type member struct {
	cfg     Config
	pipe    *pipeline.Pipeline
	sampler *sampler // nil: full timing (see WithSampledTiming)
}

// New builds a live machine for the named workload, configured by the
// options. The workload must be one of workloads.Names unless
// WithProgram supplies a prebuilt program, in which case the name is
// only a label and may be empty. The machine is built on the storage a
// closed session released when there is some (see Close), reset to the
// power-on state, so it runs exactly as a freshly allocated one.
func New(workload string, opts ...Option) (*Session, error) {
	origin := Config{Workload: workload}
	cfg := origin
	for _, o := range opts {
		o(&cfg)
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	s.origin = origin
	return s, nil
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
		var err error
		unit, err = core.NewUnit(core.DefaultConfig())
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
		name: cfg.Workload,
		prog: prog,
		cpu:  cpu,
		unit: unit,
	}
	if cfg.Sample != nil {
		s.sched = &schedule{cfg: *cfg.Sample}
	}
	if err := s.addMember(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// newMember builds the timing model cfg asks for: nothing for a
// functional-only configuration, and a follower of the first member
// with the same event key (see sharesEvents), if there is one.
func (s *Session) newMember(cfg Config) (*member, error) {
	m := &member{cfg: cfg}
	if cfg.SkipTiming {
		return m, nil
	}
	if cfg.Sample != nil {
		m.sampler = &sampler{}
	}
	pcfg := coreConfig(cfg)
	for _, l := range s.members {
		if l.pipe != nil && sharesEvents(l.cfg, cfg) {
			var err error
			if m.pipe, err = pipeline.NewFollower(pcfg, l.pipe); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	pred, err := NewPredictor(predictorKind(cfg))
	if err != nil {
		return nil, err
	}
	if m.pipe, err = pipeline.New(pcfg, s.prog, pred); err != nil {
		return nil, err
	}
	return m, nil
}

// coreConfig returns the pipeline configuration of member cfg.
func coreConfig(cfg Config) pipeline.Config {
	pcfg := pipeline.FourWide()
	if cfg.Core != nil {
		pcfg = *cfg.Core
	}
	pcfg.FilterProb = cfg.FilterProb
	return pcfg
}

// predictorKind returns the predictor of member cfg.
func predictorKind(cfg Config) PredictorKind {
	if cfg.Predictor == "" {
		return PredTAGESCL
	}
	return cfg.Predictor
}

// sharesEvents reports whether members a and b of one stream have the
// same event key: the predictor, the caches, the memory latency,
// predictor filtering and the oracle front end. Their caches and
// predictors then go through the same states and produce the same miss
// events, so b can replay a's instead of computing its own; width, ROB
// size, functional units, front-end depth and the penalty model shape
// only the schedule.
func sharesEvents(a, b Config) bool {
	return predictorKind(a) == predictorKind(b) && coreConfig(a).SameEvents(coreConfig(b))
}

// AddMember adds a timing model to the session: the options, applied to
// the configuration New or Resume started from, describe the member
// exactly as they would describe a session of its own. Every field that
// shapes emulation — workload, program, params, variant, seed, PBS
// hardware, value capture, SkipTiming, MaxInstrs and the sampling
// schedule — must agree with the session's; the member may differ only
// in predictor, core and predictor filtering. The emulator then runs
// once, its trace batches go to every member in turn, and each member's
// result (see Results) is byte-identical to its solo run.
//
// A member whose event key — predictor, caches, memory latency,
// predictor filtering and oracle front end — is that of an earlier
// member shares that member's miss-event stage: per batch the stage's
// event pass runs the caches and the predictor once, and every member
// on it runs the recorded cache levels and mispredictions through its
// own schedule (width, ROB, functional units, front-end depth, penalty
// model).
//
// Members join before the session first runs timed — before or after
// a FastForward, whose timing models all start cold — and not once the
// session was resumed from a checkpoint (a member would start cold
// where the solo run restores). A multi-member session checkpoints
// every member's schedule and each shared stage once (see Checkpoint);
// Snapshot and Result report the first member.
func (s *Session) AddMember(opts ...Option) error {
	cfg := s.origin
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case s.err != nil:
		return s.err
	case s.started:
		return fmt.Errorf("sim: a member cannot join a session that has run timed or was resumed")
	}
	if err := sameStream(s.members[0].cfg, cfg); err != nil {
		return err
	}
	return s.addMember(cfg)
}

// addMember builds member cfg's timing model and adds its pipeline, and
// its stage unless an earlier member built it, to the session's timing
// sink.
func (s *Session) addMember(cfg Config) error {
	m, err := s.newMember(cfg)
	if err != nil {
		return err
	}
	s.members = append(s.members, m)
	if m.pipe == nil {
		return nil
	}
	if s.timing == nil {
		s.timing = &timing{}
		s.cpu.SetTraceSink(s.timing)
	}
	t := s.timing
	if !slices.Contains(t.stages, m.pipe.Events) {
		t.stages = append(t.stages, m.pipe.Events)
	}
	t.pipes = append(t.pipes, m.pipe)
	return nil
}

// sameStream returns an error naming the first field on which member
// configuration b would retire a different instruction stream than a.
func sameStream(a, b Config) error {
	var field string
	switch {
	case a.Workload != b.Workload || a.Params != b.Params || a.Variant != b.Variant || a.Program != b.Program:
		field = "program"
	case a.Seed != b.Seed:
		field = "seed"
	case a.PBS != b.PBS:
		field = "PBS hardware"
	case a.CaptureProb != b.CaptureProb:
		field = "value capture"
	case a.SkipTiming != b.SkipTiming:
		field = "timing mode"
	case a.MaxInstrs != b.MaxInstrs:
		field = "instruction budget"
	case !equalPtr(a.Sample, b.Sample):
		field = "sampling schedule"
	default:
		return nil
	}
	return fmt.Errorf("sim: member %s differs from the session's functional stream in its %s", b.Workload, field)
}

// equalPtr reports whether two optional settings are both unset or
// both set to equal values.
func equalPtr[T comparable](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// timing is the trace sink of a timed session: per batch, the event
// pass of each miss-event stage (in order of first use), then the
// schedule pass of each member's pipeline (in member order), which
// reads its stage's record of the batch. Both passes only read the
// batch, so every member sees the emulator's stream unchanged.
type timing struct {
	stages []*pipeline.Events
	pipes  []*pipeline.Pipeline
}

func (t *timing) ConsumeTrace(batch []emu.DynInstr) {
	for _, st := range t.stages {
		st.Record(batch)
	}
	for _, p := range t.pipes {
		p.Schedule(batch)
	}
}

// warming is the trace sink of a functionally warmed gap on a sampled
// run: each stage's event pass with its counters put back (see
// pipeline.Events.Warm); no schedule sees the batch.
type warming timing

func (w *warming) ConsumeTrace(batch []emu.DynInstr) {
	for _, st := range w.stages {
		st.Warm(batch)
	}
}

// Close ends the session and hands its machine to package-level pools:
// the emulator's memory image and trace buffer, each miss-event stage's
// predictor and cache hierarchy, and each member's pipeline with its
// ROB and FU rings. The next session the process builds (New,
// AddMember, Resume) takes them from there and resets them to the
// power-on state, so a stream of short runs allocates its machine
// about once. Results and checkpoints taken before Close stay valid:
// none of them aliases the machine.
//
// A closed session refuses every later call: those that return an
// error return one and Done reports true. Instructions, Halted,
// Snapshot and Result panic, since Close drops the machine they read.
// A second Close does nothing.
func (s *Session) Close() {
	if s.err == errClosed {
		return
	}
	if t := s.timing; t != nil {
		for _, st := range t.stages {
			st.Release()
		}
		for _, p := range t.pipes {
			p.Release()
		}
	}
	s.cpu.Release()
	s.cpu, s.timing, s.members = nil, nil, nil
	s.err = errClosed
}

// Program returns the program the session executes.
func (s *Session) Program() *isa.Program { return s.prog }

// Instructions returns the retired dynamic instruction count so far.
func (s *Session) Instructions() uint64 { return s.cpu.Stats().Instructions }

// Halted reports whether the program has executed HALT.
func (s *Session) Halted() bool { return s.cpu.Halted() }

// Done reports whether the machine can run no further: the program
// halted, the WithMaxInstrs budget is exhausted, a previous run
// faulted, or the session is closed.
func (s *Session) Done() bool {
	if s.err != nil || s.cpu.Halted() {
		return true
	}
	limit := s.members[0].cfg.MaxInstrs
	return limit > 0 && s.Instructions() >= limit
}

// Err returns the fault that stopped the session, if any, or the error
// of a closed session.
func (s *Session) Err() error { return s.err }

// collect samples the machine's counters as member m sees them right
// now. Every caller sits between cpu.Run calls, where the trace is
// flushed, so timing counters are always caught up here.
func (s *Session) collect(m *member) Metrics {
	out := Metrics{Emu: s.cpu.Stats()}
	if m.pipe != nil {
		out.Timing = m.pipe.Metrics()
	}
	if s.unit != nil {
		out.PBSStats = s.unit.Stats()
	}
	if m.sampler != nil {
		out.Sampled = m.sampler.estimate(s.sched)
	}
	return out
}

// Snapshot returns the cumulative metrics. Valid at any point; an
// interval rate comes from the difference of two snapshots' Timing (see
// pipeline.Metrics.Delta). On a multi-member session it reports the
// first member.
func (s *Session) Snapshot() Metrics { return s.collect(s.members[0]) }

// RunFor advances the machine by up to n retired instructions and
// reports whether the machine is done (halted, out of budget, or
// faulted); unless it is done, it stops exactly n instructions on.
// Running a session in chunks of any size retires the same instruction
// stream — and therefore produces byte-identical metrics and outputs —
// as a single Run.
func (s *Session) RunFor(n uint64) (bool, error) {
	if s.err != nil {
		return true, s.err
	}
	if n == 0 {
		return s.Done(), nil
	}
	err := s.advance(s.stop(n))
	return s.Done(), err
}

// FastForward retires up to n instructions (capped by WithMaxInstrs)
// with no trace sink installed and reports, as RunFor does, whether the
// machine is done: a sampled schedule counts none of them, and every
// timing model starts cold where it ends — the functional prefix of a
// SMARTS-style measured region. Members may join before or after it;
// it is refused once the session has run timed or was resumed.
func (s *Session) FastForward(n uint64) (bool, error) {
	switch {
	case s.err != nil:
		return true, s.err
	case s.started:
		return s.Done(), fmt.Errorf("sim: cannot fast-forward a session that has run timed or was resumed")
	}
	if n == 0 || s.Done() {
		return s.Done(), nil
	}
	s.cpu.SetTraceSink(nil)
	err := s.cpu.Run(s.stop(n))
	if s.timing != nil {
		s.cpu.SetTraceSink(s.timing)
	}
	if err != nil {
		return true, s.fault(err)
	}
	return s.Done(), nil
}

// stop returns the absolute retired-instruction count at which running
// n more instructions (0 = to completion) ends, capped by the budget; 0
// when nothing caps the run.
func (s *Session) stop(n uint64) uint64 {
	target := s.Instructions() + n
	if n == 0 || target < n {
		target = 0 // to completion, or n exceeds any possible remainder
	}
	if budget := s.members[0].cfg.MaxInstrs; budget > 0 && (target == 0 || budget < target) {
		return budget
	}
	return target
}

// fault records err, an emulator fault, as the session's fatal error.
func (s *Session) fault(err error) error {
	if s.name != "" {
		err = fmt.Errorf("%s: %w", s.name, err)
	}
	s.err = fmt.Errorf("sim: %w", err)
	return s.err
}

// Run advances the machine until the program halts or the WithMaxInstrs
// budget is exhausted.
func (s *Session) Run() error {
	if s.err != nil {
		return s.err
	}
	return s.advance(s.stop(0))
}

// advance executes until the absolute retired-instruction count reaches
// limit (0 = none; see stop) or HALT; a sampled run chunks the emulator
// on its schedule boundaries.
func (s *Session) advance(limit uint64) error {
	if s.cpu.Halted() {
		return nil
	}
	s.started = true
	sc := s.sched
	if sc != nil {
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
		if sc != nil {
			// Reconcile before the limit check so a window closing exactly
			// at the limit is recorded on this advance, not the next.
			s.syncSample(cur)
		}
		if limit > 0 && cur >= limit {
			return nil
		}
		stop := limit
		if sc != nil {
			// Never cross a schedule edge inside one emulator chunk: every
			// retired interval then belongs wholly to one phase, which keeps
			// the accounting exact and the phase switches on-boundary.
			if nb := sc.cfg.NextBoundary(cur); stop == 0 || nb < stop {
				stop = nb
			}
		}
		if err := s.cpu.Run(stop); err != nil {
			return s.fault(err)
		}
		if sc != nil {
			sc.account(cur, s.cpu.Stats().Instructions-cur)
		}
	}
	return nil
}

// Result bundles the run's products in the shape the one-shot Run API
// returns. Valid at any point; a caller that stops early via RunFor gets
// the partial outputs produced so far. On a multi-member session it is
// the first member's result (see Results).
func (s *Session) Result() *Result { return s.result(s.members[0]) }

// Results returns every member's result, in AddMember order; the first
// is Result's. A closed session returns an error.
func (s *Session) Results() ([]*Result, error) {
	if s.err == errClosed {
		return nil, errClosed
	}
	out := make([]*Result, len(s.members))
	for i, m := range s.members {
		out[i] = s.result(m)
	}
	return out, nil
}

func (s *Session) result(mb *member) *Result {
	m := s.collect(mb)
	res := &Result{
		Workload:  s.name,
		Program:   s.prog,
		Timing:    m.Timing,
		Emu:       m.Emu,
		PBSStats:  m.PBSStats,
		Outputs:   s.cpu.Output(),
		Generated: s.cpu.Generated,
		Consumed:  s.cpu.Consumed,
	}
	if mb.sampler != nil {
		e := m.Sampled
		res.Sampled = &e
	}
	return res
}
