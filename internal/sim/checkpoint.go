package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// Checkpoint section names, in container order. A functional-only
// session writes no predictor or pipeline section; a session without
// PBS writes no pbs section. Resume treats a missing timing section as
// "start the timing model cold" — the seam warm-prefix reuse builds on
// — but requires the functional sections and an exact program match.
const (
	secConfig    = "config"
	secEmu       = "emu"
	secRNG       = "rng"
	secPBS       = "pbs"
	secPredictor = "predictor"
	secPipeline  = "pipeline"
	secSession   = "session"
)

// Checkpoint is a serialized snapshot of a Session's complete machine
// state: the embedded configuration plus one section per stateful
// component (see internal/ckpt for the container format). Checkpoints
// are deterministic — the same machine state always encodes to the same
// bytes — and self-describing: Resume rebuilds a session from the
// embedded configuration alone.
//
// Not captured: observer registrations (callbacks are process state,
// re-register after Resume) and the emulator's trace buffer (always
// flushed at a checkpoint boundary).
type Checkpoint struct {
	data     []byte
	cfg      Config
	instrs   uint64
	progHash uint64
}

// Bytes returns the serialized container, suitable for os.WriteFile.
func (c *Checkpoint) Bytes() []byte { return c.data }

// Config returns the embedded run configuration (Program is nil; the
// program is revalidated by content hash on Resume).
func (c *Checkpoint) Config() Config { return c.cfg }

// Instructions returns the retired-instruction count at the checkpoint.
func (c *Checkpoint) Instructions() uint64 { return c.instrs }

// Checkpoint serializes the session's complete machine state. The
// trace is flushed whenever the caller can call anything — between
// New/RunFor/Run calls, or inside an Observe callback — so the timing
// model is always caught up. A dead session (faulted) cannot be
// checkpointed.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	if s.err != nil {
		return nil, fmt.Errorf("sim: cannot checkpoint a faulted session: %w", s.err)
	}
	hash := programHash(s.prog)
	enc := ckpt.NewEncoder()
	writeConfig(enc.Section(secConfig), s.cfg, hash)
	if err := s.cpu.CheckpointState(enc.Section(secEmu)); err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := s.cpu.RNG().CheckpointState(enc.Section(secRNG)); err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	if s.unit != nil {
		if err := s.unit.CheckpointState(enc.Section(secPBS)); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
	}
	if s.pred != nil {
		cp, ok := s.pred.(ckpt.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("sim: predictor %s does not support checkpointing", s.pred.Name())
		}
		w := enc.Section(secPredictor)
		w.String(s.pred.Name())
		if err := cp.CheckpointState(w); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
	}
	if s.pipe != nil {
		if err := s.pipe.CheckpointState(enc.Section(secPipeline)); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: %w", err)
		}
	}
	sw := enc.Section(secSession)
	sw.Uint(s.Instructions())
	writeMetrics(sw, s.lastDirect)
	if s.sampler != nil {
		// The sampler's schedule position is implied by the instruction
		// count; what must survive is the window populations, the phase
		// accounting, the open window's delta baseline, and the pipeline's
		// warming flag. Trace-pause state is NOT serialized: the next
		// advance's schedule reconcile re-pauses or resumes as the phase
		// dictates before any instruction retires.
		sp := s.sampler
		sw.Floats(sp.cpis)
		sw.Floats(sp.mpkis)
		sw.Uint(sp.instrFF)
		sw.Uint(sp.instrWarm)
		sw.Uint(sp.instrMeas)
		sw.Bool(sp.open)
		sw.Uint(sp.winEnd)
		writePipeMetrics(sw, s.pipe.WindowBase())
		sw.Bool(s.pipe.Warming())
	}
	data, err := enc.Encode()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	cfg := s.cfg
	cfg.Program = nil
	return &Checkpoint{data: data, cfg: cfg, instrs: s.Instructions(), progHash: hash}, nil
}

// LoadCheckpoint validates a serialized checkpoint and decodes its
// configuration, without building a machine. Truncated, corrupted, or
// version-mismatched data returns an error, never panics.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	dec, err := ckpt.NewDecoder(data)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cr, ok := dec.Section(secConfig)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secConfig)
	}
	cfg, hash, err := readConfig(cr)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint config: %w", err)
	}
	sr, ok := dec.Section(secSession)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secSession)
	}
	instrs := sr.Uint()
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint session section: %w", err)
	}
	return &Checkpoint{data: data, cfg: cfg, instrs: instrs, progHash: hash}, nil
}

// Resume builds a live session from a checkpoint: the embedded
// configuration (with opts applied on top) wires a fresh machine, then
// every component restores its serialized state. The program — rebuilt
// from the workload or supplied via WithProgram — must hash-match the
// checkpointed one.
//
// Options may not change what the machine is (program, seed, PBS
// hardware — the functional state would be inconsistent) but may change
// how it continues: the instruction budget (WithMaxInstrs) and — for a
// functional-only checkpoint — turning the timing model on, which
// starts predictor, caches and pipeline cold at the checkpoint
// boundary. That is the
// warm-prefix fast-forward of the sweep engine: functional state is
// exact, timing state accumulates only over the measured suffix.
func Resume(c *Checkpoint, opts ...Option) (*Session, error) {
	cfg := c.cfg
	for _, o := range opts {
		o(&cfg)
	}
	dec, err := ckpt.NewDecoder(c.data)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	if got := programHash(s.prog); got != c.progHash {
		return nil, fmt.Errorf("sim: resume: program %q does not match the checkpointed program (hash %#x, want %#x)",
			s.prog.Name, got, c.progHash)
	}

	er, ok := dec.Section(secEmu)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secEmu)
	}
	if err := s.cpu.RestoreState(er); err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	rr, ok := dec.Section(secRNG)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secRNG)
	}
	if err := s.cpu.RNG().RestoreState(rr); err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}

	pr, hasPBS := dec.Section(secPBS)
	if hasPBS != (s.unit != nil) {
		// PBS shapes the functional state itself, so a mismatch cannot be
		// papered over with a cold start the way timing components can.
		return nil, fmt.Errorf("sim: resume: checkpoint PBS state %v does not match session PBS configuration %v",
			hasPBS, s.unit != nil)
	}
	if hasPBS {
		if err := s.unit.RestoreState(pr); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
	}

	if br, ok := dec.Section(secPredictor); ok && s.pred != nil {
		name := br.String()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
		if name != s.pred.Name() {
			return nil, fmt.Errorf("sim: resume: checkpoint predictor %q does not match session predictor %q", name, s.pred.Name())
		}
		cp, ok := s.pred.(ckpt.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("sim: predictor %s does not support checkpointing", s.pred.Name())
		}
		if err := cp.RestoreState(br); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
	}
	if tr, ok := dec.Section(secPipeline); ok && s.pipe != nil {
		if err := s.pipe.RestoreState(tr); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
	}

	sr, ok := dec.Section(secSession)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secSession)
	}
	sr.Uint() // instruction count, already exposed via Checkpoint.Instructions
	last, err := readMetrics(sr)
	if err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	s.lastDirect = last
	if c.cfg.Sample != nil {
		// Gate on the embedded (pre-option) config — that is what
		// Checkpoint wrote. Options cannot clear Sample, so the resumed
		// session always has a sampler to restore into; a checkpoint
		// WITHOUT sampler state resumed WITH WithSampledTiming simply
		// starts the sampler fresh at the checkpoint position.
		sp := s.sampler
		sp.cpis = sr.Floats()
		sp.mpkis = sr.Floats()
		sp.instrFF = sr.Uint()
		sp.instrWarm = sr.Uint()
		sp.instrMeas = sr.Uint()
		sp.open = sr.Bool()
		sp.winEnd = sr.Uint()
		s.pipe.SetWindowBase(readPipeMetrics(sr))
		s.pipe.SetWarming(sr.Bool())
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("sim: resume: sampler state: %w", err)
		}
	}
	return s, nil
}

// writeConfig serializes the run configuration and the program content
// hash.
func writeConfig(w *ckpt.Writer, cfg Config, progHash uint64) {
	w.String(cfg.Workload)
	w.Int(int64(cfg.Params.Scale))
	w.Uint(cfg.Seed)
	w.String(string(cfg.Predictor))
	w.Bool(cfg.PBS)
	w.Bool(cfg.PBSConfig != nil)
	if cfg.PBSConfig != nil {
		p := cfg.PBSConfig
		w.Int(int64(p.Branches))
		w.Int(int64(p.ValuesPerBranch))
		w.Int(int64(p.InFlight))
		w.Int(int64(p.ContextLoops))
		w.Bool(p.EnableContext)
		w.Int(int64(p.PCBits))
		w.Int(int64(p.RegIdxBits))
		w.Int(int64(p.ValueBits))
		w.Int(int64(p.BTBIndexBits))
	}
	w.Bool(cfg.Core != nil)
	if cfg.Core != nil {
		writeCoreConfig(w, *cfg.Core)
	}
	w.Bool(cfg.FilterProb)
	w.Bool(cfg.CaptureProb)
	w.Uint(cfg.MaxInstrs)
	w.Int(int64(cfg.Variant))
	w.Bool(cfg.SkipTiming)
	w.Bool(cfg.Sample != nil)
	if cfg.Sample != nil {
		w.Uint(cfg.Sample.Window)
		w.Uint(cfg.Sample.Period)
		w.Uint(cfg.Sample.Warmup)
		w.Uint(cfg.Sample.Offset)
		w.Bool(cfg.Sample.FuncWarm)
	}
	w.U64(progHash)
}

func readConfig(r *ckpt.Reader) (Config, uint64, error) {
	var cfg Config
	cfg.Workload = r.String()
	cfg.Params.Scale = int(r.Int())
	cfg.Seed = r.Uint()
	cfg.Predictor = PredictorKind(r.String())
	cfg.PBS = r.Bool()
	if r.Bool() {
		p := &core.Config{
			Branches:        int(r.Int()),
			ValuesPerBranch: int(r.Int()),
			InFlight:        int(r.Int()),
			ContextLoops:    int(r.Int()),
			EnableContext:   r.Bool(),
			PCBits:          int(r.Int()),
			RegIdxBits:      int(r.Int()),
			ValueBits:       int(r.Int()),
			BTBIndexBits:    int(r.Int()),
		}
		cfg.PBSConfig = p
	}
	if r.Bool() {
		c := readCoreConfig(r)
		cfg.Core = &c
	}
	cfg.FilterProb = r.Bool()
	cfg.CaptureProb = r.Bool()
	cfg.MaxInstrs = r.Uint()
	cfg.Variant = workloads.Variant(r.Int())
	cfg.SkipTiming = r.Bool()
	if r.Bool() {
		cfg.Sample = &sample.Config{
			Window:   r.Uint(),
			Period:   r.Uint(),
			Warmup:   r.Uint(),
			Offset:   r.Uint(),
			FuncWarm: r.Bool(),
		}
	}
	hash := r.U64()
	return cfg, hash, r.Err()
}

func writeCacheConfig(w *ckpt.Writer, c cache.Config) {
	w.Int(int64(c.SizeBytes))
	w.Int(int64(c.LineBytes))
	w.Int(int64(c.Ways))
	w.Int(int64(c.HitLatency))
}

func readCacheConfig(r *ckpt.Reader) cache.Config {
	return cache.Config{
		SizeBytes:  int(r.Int()),
		LineBytes:  int(r.Int()),
		Ways:       int(r.Int()),
		HitLatency: int(r.Int()),
	}
}

func writeCoreConfig(w *ckpt.Writer, c pipeline.Config) {
	w.Int(int64(c.Width))
	w.Int(int64(c.ROBSize))
	w.Int(int64(c.FrontendDepth))
	w.Int(int64(c.MispredictPenalty))
	w.Int(int64(c.IntALUs))
	w.Int(int64(c.FPUs))
	w.Int(int64(c.MemPorts))
	w.Int(int64(c.BranchUnits))
	writeCacheConfig(w, c.L1I)
	writeCacheConfig(w, c.L1D)
	writeCacheConfig(w, c.L2)
	w.Int(int64(c.MemLatency))
	w.Bool(c.FilterProb)
	w.Bool(c.PerfectBranches)
	w.Bool(c.ResolutionPenalty)
}

func readCoreConfig(r *ckpt.Reader) pipeline.Config {
	return pipeline.Config{
		Width:             int(r.Int()),
		ROBSize:           int(r.Int()),
		FrontendDepth:     int(r.Int()),
		MispredictPenalty: int(r.Int()),
		IntALUs:           int(r.Int()),
		FPUs:              int(r.Int()),
		MemPorts:          int(r.Int()),
		BranchUnits:       int(r.Int()),
		L1I:               readCacheConfig(r),
		L1D:               readCacheConfig(r),
		L2:                readCacheConfig(r),
		MemLatency:        int(r.Int()),
		FilterProb:        r.Bool(),
		PerfectBranches:   r.Bool(),
		ResolutionPenalty: r.Bool(),
	}
}

// writeMetrics serializes a unified Metrics view (the session's
// lastDirect sample, so a Snapshot after Resume reports the same Delta
// an uninterrupted session would).
func writeMetrics(w *ckpt.Writer, m Metrics) {
	w.Uint(m.Instructions)
	w.Uint(m.Branches)
	w.Uint(m.CondBranches)
	w.Uint(m.ProbBranches)
	w.Uint(m.Calls)
	w.Uint(m.Returns)
	w.Uint(m.Loads)
	w.Uint(m.Stores)
	w.Uint(m.RandDraws)
	w.Uint(m.Outputs)
	w.Uint(m.Cycles)
	w.Uint(m.ProbSteered)
	w.Uint(m.ProbBoot)
	w.Uint(m.ProbRegular)
	w.Uint(m.Mispredicts)
	w.Uint(m.MispredictsProb)
	w.Uint(m.MispredictsReg)
	w.Uint(m.L1IAccesses)
	w.Uint(m.L1IMisses)
	w.Uint(m.L1DAccesses)
	w.Uint(m.L1DMisses)
	w.Uint(m.L2Misses)
	w.Uint(m.PBSResolutions)
	w.Uint(m.PBSSteered)
	w.Uint(m.PBSBootstrap)
	w.Uint(m.PBSRegular)
	w.Uint(m.PBSConstViolations)
	w.Uint(m.PBSCapacityMisses)
	w.Uint(m.PBSValueOverflows)
	w.Uint(m.PBSUntrackableCtx)
	w.Uint(m.PBSAllocations)
	w.Uint(m.PBSContextClears)
	w.Int(int64(m.PBSMaxLiveBranches))
}

func readMetrics(r *ckpt.Reader) (Metrics, error) {
	var m Metrics
	m.Instructions = r.Uint()
	m.Branches = r.Uint()
	m.CondBranches = r.Uint()
	m.ProbBranches = r.Uint()
	m.Calls = r.Uint()
	m.Returns = r.Uint()
	m.Loads = r.Uint()
	m.Stores = r.Uint()
	m.RandDraws = r.Uint()
	m.Outputs = r.Uint()
	m.Cycles = r.Uint()
	m.ProbSteered = r.Uint()
	m.ProbBoot = r.Uint()
	m.ProbRegular = r.Uint()
	m.Mispredicts = r.Uint()
	m.MispredictsProb = r.Uint()
	m.MispredictsReg = r.Uint()
	m.L1IAccesses = r.Uint()
	m.L1IMisses = r.Uint()
	m.L1DAccesses = r.Uint()
	m.L1DMisses = r.Uint()
	m.L2Misses = r.Uint()
	m.PBSResolutions = r.Uint()
	m.PBSSteered = r.Uint()
	m.PBSBootstrap = r.Uint()
	m.PBSRegular = r.Uint()
	m.PBSConstViolations = r.Uint()
	m.PBSCapacityMisses = r.Uint()
	m.PBSValueOverflows = r.Uint()
	m.PBSUntrackableCtx = r.Uint()
	m.PBSAllocations = r.Uint()
	m.PBSContextClears = r.Uint()
	m.PBSMaxLiveBranches = int(r.Int())
	return m, r.Err()
}

// writePipeMetrics serializes a raw pipeline.Metrics (the open sampled
// window's delta baseline). Kept out of the pipeline section so a
// non-sampled checkpoint's bytes are unchanged from earlier versions.
func writePipeMetrics(w *ckpt.Writer, m pipeline.Metrics) {
	w.Uint(m.Instructions)
	w.Uint(m.Cycles)
	w.Uint(m.Branches)
	w.Uint(m.CondBranches)
	w.Uint(m.ProbBranches)
	w.Uint(m.ProbSteered)
	w.Uint(m.ProbBoot)
	w.Uint(m.ProbRegular)
	w.Uint(m.Mispredicts)
	w.Uint(m.MispredictsProb)
	w.Uint(m.MispredictsReg)
	w.Uint(m.L1IMisses)
	w.Uint(m.L1DMisses)
	w.Uint(m.L2Misses)
	w.Uint(m.L1IAccesses)
	w.Uint(m.L1DAccesses)
}

func readPipeMetrics(r *ckpt.Reader) pipeline.Metrics {
	var m pipeline.Metrics
	m.Instructions = r.Uint()
	m.Cycles = r.Uint()
	m.Branches = r.Uint()
	m.CondBranches = r.Uint()
	m.ProbBranches = r.Uint()
	m.ProbSteered = r.Uint()
	m.ProbBoot = r.Uint()
	m.ProbRegular = r.Uint()
	m.Mispredicts = r.Uint()
	m.MispredictsProb = r.Uint()
	m.MispredictsReg = r.Uint()
	m.L1IMisses = r.Uint()
	m.L1DMisses = r.Uint()
	m.L2Misses = r.Uint()
	m.L1IAccesses = r.Uint()
	m.L1DAccesses = r.Uint()
	return m
}

// programHash is a stable FNV-64a content hash over everything that
// affects execution: name, code, constants, memory size, and the
// initial data image (in sorted address order — map order must not leak
// in). Labels are debug metadata and excluded.
func programHash(p *isa.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.Name))
	h.Write([]byte{0})
	wU64(uint64(len(p.Code)))
	for _, in := range p.Code {
		wU64(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Ra)<<16 | uint64(in.Rb)<<24 | uint64(uint32(in.Imm))<<32)
	}
	wU64(uint64(len(p.Consts)))
	for _, c := range p.Consts {
		wU64(c)
	}
	wU64(uint64(p.MemSize))
	wU64(uint64(len(p.DataInit)))
	addrs := make([]int64, 0, len(p.DataInit))
	for a := range p.DataInit {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		wU64(uint64(a))
		wU64(p.DataInit[a])
	}
	return h.Sum64()
}
