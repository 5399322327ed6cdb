package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/isa"
)

// Checkpoint section names, in container order. The emulator, RNG,
// PBS unit and session sections describe the shared functional stream
// and appear once; each miss-event stage writes one stage section and
// each member one pipeline section (its schedule), suffixed with the
// stage's or the member's index (see indexed). A functional-only
// session writes no stage or pipeline section; a session without PBS
// writes no pbs section. Resume requires exactly the sections the
// resumed members write, and an exact program match.
const (
	secConfig   = "config"
	secEmu      = "emu"
	secRNG      = "rng"
	secPBS      = "pbs"
	secStage    = "stage"
	secPipeline = "pipeline"
	secSession  = "session"
)

// indexed names the i-th stage's or member's section of a kind.
func indexed(name string, i int) string { return fmt.Sprintf("%s/%d", name, i) }

// Checkpoint is a serialized snapshot of a Session's complete machine
// state: the embedded configuration of every member plus one section
// per stateful component (see internal/ckpt for the container format).
// Checkpoints are deterministic — the same machine state always encodes
// to the same bytes — and self-describing: Resume rebuilds a session,
// every member included, from the embedded configurations alone.
//
// Not captured: the emulator's trace buffer (always flushed at a
// checkpoint boundary).
type Checkpoint struct {
	data     []byte
	cfgs     []Config // per member, in AddMember order; never empty
	instrs   uint64
	progHash uint64
}

// Bytes returns the serialized container, suitable for os.WriteFile.
func (c *Checkpoint) Bytes() []byte { return c.data }

// Config returns the first member's embedded run configuration
// (Program is nil; the program is revalidated by content hash on
// Resume).
func (c *Checkpoint) Config() Config { return c.cfgs[0] }

// Instructions returns the retired-instruction count at the checkpoint.
func (c *Checkpoint) Instructions() uint64 { return c.instrs }

// Checkpoint serializes the session's complete machine state, every
// member's timing model included: each miss-event stage once, as
// stage/<k> in order of first use (predictor, trace-determined
// counters, line streaks, caches), and each member's schedule as
// pipeline/<i>. The trace is flushed whenever the caller can call
// anything — between New/RunFor/Run calls — so the timing models are
// always caught up. A dead session (faulted) cannot be checkpointed.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	switch {
	case s.err == errClosed:
		return nil, errClosed
	case s.err != nil:
		return nil, fmt.Errorf("sim: cannot checkpoint a faulted session: %w", s.err)
	}
	hash := programHash(s.prog)
	enc := ckpt.NewEncoder()
	// The config section: the member count, each member's run
	// configuration as JSON (Program is not encoded), then the program
	// content hash.
	cfgs := make([]Config, len(s.members))
	cw := enc.Section(secConfig)
	cw.Uint(uint64(len(cfgs)))
	for i, m := range s.members {
		cfgs[i] = m.cfg
		cfgs[i].Program = nil
		cfgJSON, err := json.Marshal(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint config: %w", err)
		}
		cw.Bytes(cfgJSON)
	}
	cw.U64(hash)
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
	if t := s.timing; t != nil {
		for k, st := range t.stages {
			if err := st.CheckpointState(enc.Section(indexed(secStage, k))); err != nil {
				return nil, fmt.Errorf("sim: checkpoint: %w", err)
			}
		}
		for i, p := range t.pipes {
			if err := p.CheckpointState(enc.Section(indexed(secPipeline, i))); err != nil {
				return nil, fmt.Errorf("sim: checkpoint: %w", err)
			}
		}
	}
	sw := enc.Section(secSession)
	sw.Uint(s.Instructions())
	if sc := s.sched; sc != nil {
		// The schedule position is implied by the instruction count; what
		// must survive is the phase accounting, the open window and each
		// member's window populations and delta baseline. Which trace
		// sink is installed is NOT serialized: the next advance's
		// schedule reconcile installs the one the phase dictates before
		// any instruction retires.
		sw.Uint(sc.instrFF)
		sw.Uint(sc.instrWarm)
		sw.Uint(sc.instrMeas)
		sw.Bool(sc.open)
		sw.Uint(sc.winEnd)
		for _, m := range s.members {
			sw.Floats(m.sampler.cpis)
			sw.Floats(m.sampler.mpkis)
			sw.Counters(&m.sampler.winBase)
		}
	}
	data, err := enc.Encode()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	return &Checkpoint{data: data, cfgs: cfgs, instrs: s.Instructions(), progHash: hash}, nil
}

// LoadCheckpoint validates a serialized checkpoint and decodes its
// configurations, without building a machine. Truncated, corrupted, or
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
	n := cr.Uint()
	if cr.Err() == nil && n == 0 {
		return nil, fmt.Errorf("sim: checkpoint config: no members")
	}
	var cfgs []Config
	for range n {
		cfgJSON := cr.Bytes()
		if cr.Err() != nil {
			break
		}
		var cfg Config
		jd := json.NewDecoder(bytes.NewReader(cfgJSON))
		jd.DisallowUnknownFields()
		if err := jd.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("sim: checkpoint config: %w", err)
		}
		cfgs = append(cfgs, cfg)
	}
	hash := cr.U64()
	if err := cr.Err(); err != nil {
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
	return &Checkpoint{data: data, cfgs: cfgs, instrs: instrs, progHash: hash}, nil
}

// Resume builds a live session from a checkpoint: each embedded member
// configuration (with opts applied on top of every one) wires a fresh
// machine with all its members, then every component restores its
// serialized state. The program — rebuilt from the workload or supplied
// via WithProgram — must hash-match the checkpointed one.
//
// Options may not change what the machine is (program, seed, PBS
// hardware — the functional state would be inconsistent) nor whether a
// member times (a timed member needs its predictor and pipeline
// sections, a functional-only member has none), but may change how it
// continues: the instruction budget (WithMaxInstrs) or the sampling
// schedule. The resumed session counts as started: it takes no new
// member and no FastForward.
//
// Members share miss-event stages as AddMember would share them, and
// each stage restores once from its stage section; Resume refuses a
// checkpoint that lacks a stage section the members' event keys need
// or has one they do not, naming it.
func Resume(c *Checkpoint, opts ...Option) (*Session, error) {
	cfgs := make([]Config, len(c.cfgs))
	for i, cfg := range c.cfgs {
		for _, o := range opts {
			o(&cfg)
		}
		cfgs[i] = cfg
	}
	dec, err := ckpt.NewDecoder(c.data)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s, err := newSession(cfgs[0])
	if err != nil {
		return nil, err
	}
	s.started = true
	for _, cfg := range cfgs[1:] {
		if err := sameStream(cfgs[0], cfg); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
		if err := s.addMember(cfg); err != nil {
			return nil, err
		}
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

	for i, m := range s.members {
		r, ok := dec.Section(indexed(secPipeline, i))
		switch timed := m.pipe != nil; {
		case timed && !ok:
			return nil, fmt.Errorf("sim: resume: timed member %d has no %s state in the checkpoint", i, secPipeline)
		case !timed && ok:
			return nil, fmt.Errorf("sim: resume: functional-only member %d has timing state in the checkpoint", i)
		case !timed:
			continue
		}
		if err := m.pipe.RestoreState(r); err != nil {
			return nil, fmt.Errorf("sim: resume: %w", err)
		}
	}
	var stages []string // the stage sections the members' event keys need
	if s.timing != nil {
		for k, st := range s.timing.stages {
			name := indexed(secStage, k)
			r, ok := dec.Section(name)
			if !ok {
				return nil, fmt.Errorf("sim: resume: checkpoint has no %s section for its members' event key %d", name, k)
			}
			if err := st.RestoreState(r); err != nil {
				return nil, fmt.Errorf("sim: resume: %s: %w", name, err)
			}
			stages = append(stages, name)
		}
	}
	for _, name := range dec.Sections() {
		if strings.HasPrefix(name, secStage+"/") && !slices.Contains(stages, name) {
			return nil, fmt.Errorf("sim: resume: checkpoint has a %s section, but its members have %d event keys", name, len(stages))
		}
	}

	sr, ok := dec.Section(secSession)
	if !ok {
		return nil, fmt.Errorf("sim: checkpoint has no %s section", secSession)
	}
	sr.Uint() // instruction count, already exposed via Checkpoint.Instructions
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	if c.cfgs[0].Sample != nil {
		// Gate on the embedded (pre-option) config — that is what
		// Checkpoint wrote. Options cannot clear Sample, so the resumed
		// session always has a schedule to restore into; a checkpoint
		// WITHOUT sampler state resumed WITH WithSampledTiming simply
		// starts the schedule fresh at the checkpoint position.
		sc := s.sched
		sc.instrFF = sr.Uint()
		sc.instrWarm = sr.Uint()
		sc.instrMeas = sr.Uint()
		sc.open = sr.Bool()
		sc.winEnd = sr.Uint()
		for _, m := range s.members {
			m.sampler.cpis = sr.Floats()
			m.sampler.mpkis = sr.Floats()
			sr.Counters(&m.sampler.winBase)
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("sim: resume: sampler state: %w", err)
		}
	}
	return s, nil
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
