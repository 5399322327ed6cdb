// Package emu is the functional emulator of the PBS machine. It executes
// programs instruction by instruction, drives the PBS unit (internal/core)
// with branch/call/return events and probabilistic branch groups, applies
// the value swaps PBS mandates, and streams a dynamic-instruction trace to
// an optional consumer (the timing model) in batches, synchronously on
// the emulating goroutine (TraceSink).
//
// The dispatch loop runs over a predecoded execution plan (internal/plan):
// immediates are sign-extended, LDC constants resolved, branch targets
// absolute and condition codes collapsed to truth tables before the first
// instruction retires, so the handler switch does no static decoding at
// all.
package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/rng"
)

// ProbState classifies a retired branch for the trace.
type ProbState uint8

const (
	// ProbNone: not a probabilistic branch.
	ProbNone ProbState = iota
	// ProbRegular: a probabilistic branch executed as a regular branch
	// (PBS disabled, untrackable context, capacity, or Const-Val flush).
	// The front end must predict it.
	ProbRegular
	// ProbBootstrap: recorded during PBS initialization; still predicted
	// like a regular branch.
	ProbBootstrap
	// ProbSteered: steered by the Prob-BTB; the direction is known at
	// fetch and the branch can never mispredict.
	ProbSteered
)

func (p ProbState) String() string {
	switch p {
	case ProbNone:
		return "none"
	case ProbRegular:
		return "regular"
	case ProbBootstrap:
		return "bootstrap"
	case ProbSteered:
		return "steered"
	}
	return fmt.Sprintf("probstate(%d)", uint8(p))
}

// DynInstr is one retired dynamic instruction, as seen by trace consumers.
type DynInstr struct {
	// PC is the instruction index.
	PC int32
	// Taken is the resolved direction for control transfers.
	Taken bool
	// MemAddr is the effective byte address for loads and stores.
	MemAddr uint64
	// Prob classifies probabilistic branches (terminal PROB_JMPs only).
	Prob ProbState
}

// TraceSink receives the retired-instruction trace in program order as
// batches. Batch buffers are reused, never copied: with a sink installed
// directly (SetTraceSink) the batch is valid only for the duration of
// the ConsumeTrace call; with a TraceRing between emulator and sink
// (SetTraceRing) the batch is valid until its buffer is recycled to the
// ring — which the ring's consumer loop does right after ConsumeTrace
// returns. Either way, a sink that needs the data beyond its own return
// must copy it. Batches are delivered when the current buffer fills,
// when CPU.Run returns for any reason (halt, instruction budget, fault),
// and on FlushTrace.
type TraceSink interface {
	ConsumeTrace(batch []DynInstr)
}

// TraceRing carries filled trace batches to an asynchronous consumer
// and recycles empty buffers back (see internal/trace.Ring). No code
// under internal/, cmd/ or examples/ installs one outside tests; the
// perfbench module's traced runs wire it by hand. Exchange
// delivers the filled batch and returns the next buffer for the CPU to
// fill, blocking while every ring buffer is in flight (backpressure); a
// nil argument is the initial buffer request. The CPU owns exactly the
// buffer Exchange last returned; delivered batches belong to the ring
// until recycled.
type TraceRing interface {
	Exchange(filled []DynInstr) []DynInstr
}

// TraceBatch is the capacity of one trace batch buffer. DynInstr is 24
// bytes, so a batch stays small enough to live in L1 while amortizing
// the delivery cost per instruction to nothing.
const TraceBatch = 256

// Fault is a runtime error raised by the emulated program.
type Fault struct {
	PC     int
	Instr  isa.Instr
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: fault at pc %d (%s): %s", f.PC, f.Instr, f.Reason)
}

// flag bits stored in the flags pseudo-register.
const (
	flagLT uint64 = 1 << 0
	flagEQ uint64 = 1 << 1
)

// probGroup accumulates one in-progress PROB_CMP/PROB_JMP group.
type probGroup struct {
	open    bool
	outcome bool
	cmpVal  uint64
	vals    []uint64
	regs    []isa.Reg
}

// Stats holds functional execution counters.
type Stats struct {
	Instructions uint64
	Branches     uint64 // control transfers with a static target + RET
	CondBranches uint64 // conditional branches (incl. terminal PROB_JMPs)
	ProbBranches uint64 // terminal PROB_JMP executions
	Calls        uint64
	Returns      uint64
	Loads        uint64
	Stores       uint64
	RandDraws    uint64
	Outputs      uint64
}

// CPU executes one program. Construct with New.
type CPU struct {
	prog *isa.Program
	plan *plan.Plan
	// regs is the architectural register file plus the flags
	// pseudo-register; only [0, isa.NumDataflowRegs) is live. The array is
	// padded to 256 entries so indexing by a predecoded uint8 register
	// number can never bounds-check in the fused dispatch loop.
	regs [256]uint64
	mem  []byte
	pc   int

	rng *rng.Stream
	pbs *core.Unit

	halted bool
	out    []uint64
	stats  Stats

	sink TraceSink
	ring TraceRing
	// buf is the current batch buffer (ring-owned when ring != nil, the
	// inline bufArr when a sink consumes synchronously); non-nil exactly
	// when a sink or ring is installed, so it doubles as the dispatch
	// loop's single "tracing?" predicate.
	buf    []DynInstr
	bufArr [TraceBatch]DynInstr

	group probGroup

	// CaptureProb enables recording of probabilistic branch-controlling
	// values: Generated in generation order, Consumed in the order the
	// algorithm observes them after PBS swapping. With PBS disabled the
	// two streams are identical; the randomness experiments (Table III)
	// compare them.
	CaptureProb bool
	Generated   []float64
	Consumed    []float64
}

// cpuPool holds released CPUs (see Release).
var cpuPool sync.Pool

// New builds a CPU for prog. pbs may be nil to run without PBS hardware
// (probabilistic instructions then execute as plain compare+jump —
// backward compatibility, §V-A2). The RNG stream must not be shared.
// The program must not be mutated afterwards: its decoded execution plan
// is built once and shared read-only (see internal/plan). The memory
// image and trace buffer are those of a released CPU when there is one,
// zeroed.
func New(prog *isa.Program, r *rng.Stream, pbs *core.Unit) (*CPU, error) {
	pl, err := plan.For(prog)
	if err != nil {
		return nil, err
	}
	c, ok := cpuPool.Get().(*CPU)
	if !ok {
		c = new(CPU)
	}
	mem := c.mem
	if n := int(prog.MemSize); cap(mem) < n {
		mem = make([]byte, n)
	} else {
		mem = mem[:n]
		clear(mem)
	}
	*c = CPU{
		prog: prog,
		plan: pl,
		mem:  mem,
		rng:  r,
		pbs:  pbs,
	}
	for addr, v := range prog.DataInit {
		putWord(c.mem, uint64(addr), v)
	}
	return c, nil
}

// Release hands the CPU's memory image and trace buffer back for a
// later New to reuse; c must not be used afterwards. What c returned
// before stays valid: Output copies, and a later New starts the
// captured value streams afresh rather than reusing theirs.
func (c *CPU) Release() {
	*c = CPU{mem: c.mem}
	cpuPool.Put(c)
}

// SetTraceSink installs the batched trace consumer, called synchronously
// from the emulating goroutine whenever a batch fills. Clears any
// installed TraceRing; entries buffered for a previous trace destination
// are flushed to it first. A nil sink turns tracing off, so Run executes
// on the untraced fused path with zero per-instruction trace cost: the
// fast-forward mechanism of sampled timing (see internal/sample).
func (c *CPU) SetTraceSink(s TraceSink) {
	c.FlushTrace()
	c.sink = s
	c.ring = nil
	if s == nil {
		c.buf = nil
	} else {
		c.buf = c.bufArr[:0]
	}
}

// SetTraceRing routes the trace through a ring of owned batch buffers to
// an asynchronous consumer: the CPU fills buffers the ring hands it and
// exchanges each full one for an empty, so emulation overlaps trace
// consumption with zero copying. sim.Session does not use it (it always
// installs a TraceSink), and no code under internal/, cmd/ or examples/
// calls it outside tests; the perfbench module's traced runs wire it by
// hand. Clears any installed TraceSink after flushing to it. The ring's
// consumer must be running whenever the CPU executes, or the exchange
// backpressure would block forever.
func (c *CPU) SetTraceRing(r TraceRing) {
	c.FlushTrace()
	c.ring = r
	c.sink = nil
	if r != nil {
		c.buf = r.Exchange(nil)[:0]
	} else {
		c.buf = nil
	}
}

// FlushTrace delivers any buffered retired instructions to the trace
// sink or ring. Run flushes automatically before returning; only callers
// that drive Step directly need to flush by hand before reading
// sink-side state (with a ring, "delivered" means queued — rendezvous
// with the consumer is the ring's business, see internal/trace).
func (c *CPU) FlushTrace() {
	if len(c.buf) == 0 {
		return
	}
	switch {
	case c.ring != nil:
		c.buf = c.ring.Exchange(c.buf)[:0]
	case c.sink != nil:
		c.sink.ConsumeTrace(c.buf)
		c.buf = c.buf[:0]
	default:
		c.buf = c.buf[:0]
	}
}

// Halted reports whether the program has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Output returns a copy of the program's OUT stream (raw 64-bit values).
// The copy does not alias live emulator state, so continued execution
// never mutates a previously returned slice.
func (c *CPU) Output() []uint64 {
	return append([]uint64(nil), c.out...)
}

// Stats returns the functional execution counters.
func (c *CPU) Stats() Stats { return c.stats }

// Reg returns the current value of register r.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg sets register r (writes to R0 are ignored, as in hardware).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.R0 {
		c.regs[r] = v
	}
}

// PBS returns the attached PBS unit (nil when disabled).
func (c *CPU) PBS() *core.Unit { return c.pbs }

// PC returns the current program counter.
func (c *CPU) PC() int { return c.pc }

func putWord(mem []byte, addr, v uint64) {
	binary.LittleEndian.PutUint64(mem[addr:], v)
}

func getWord(mem []byte, addr uint64) uint64 {
	return binary.LittleEndian.Uint64(mem[addr:])
}

// ReadWord reads the 64-bit data word at addr (for tests and harnesses).
func (c *CPU) ReadWord(addr int64) (uint64, error) {
	if addr < 0 || addr+8 > int64(len(c.mem)) {
		return 0, fmt.Errorf("emu: ReadWord address %d out of range", addr)
	}
	return getWord(c.mem, uint64(addr)), nil
}

// fault builds the runtime error for the instruction at the current pc
// (only called from runFused, after the pc bounds check).
func (c *CPU) fault(format string, args ...any) error {
	return &Fault{PC: c.pc, Instr: c.prog.Code[c.pc], Reason: fmt.Sprintf(format, args...)}
}

func (c *CPU) setFlags(lt, eq bool) {
	var f uint64
	if lt {
		f |= flagLT
	}
	if eq {
		f |= flagEQ
	}
	c.regs[isa.FlagsReg] = f
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }

// Run executes until HALT, a fault, or maxInstrs retired instructions
// (0 = no limit). It returns nil on HALT and on hitting the instruction
// budget, and flushes the trace sink before returning in every case.
//
// Run executes through the plan's superblock map: each dispatch covers
// the whole maximal straight-line run from the current pc — interior
// instructions in a fused loop that pays no per-instruction stepping
// overhead, the terminating branch/probabilistic/halt instruction in a
// single block-exit dispatch — with pc, the retired-instruction count
// and the trace batch committed in bulk. Budget limits and trace-buffer
// room truncate a dispatch to a single instruction, so Run still stops on
// exact instruction boundaries: chunked execution, checkpoints and
// faults see precisely the machine states of one-instruction Steps.
func (c *CPU) Run(maxInstrs uint64) error {
	err := c.runFused(maxInstrs)
	c.FlushTrace()
	return err
}

// Step executes a single instruction: runFused with a one-instruction
// budget, so the instruction runs under its plain handler code (see
// block.go). It errors after HALT. Retired instructions reach a
// TraceSink only when the internal batch fills; call FlushTrace before
// reading sink-side state after hand-driven Steps.
func (c *CPU) Step() error {
	if c.halted {
		return fmt.Errorf("emu: step after halt")
	}
	err := c.runFused(c.stats.Instructions + 1)
	if len(c.buf) == cap(c.buf) {
		c.FlushTrace()
	}
	return err
}

// resolveProb finishes a probabilistic branch group at its terminal
// PROB_JMP: with PBS attached, the unit decides direction and values and
// the emulator applies the swap; without PBS the branch follows its
// natural outcome.
func (c *CPU) resolveProb() (bool, ProbState) {
	g := c.group
	if c.pbs == nil {
		if c.CaptureProb {
			c.Generated = append(c.Generated, f64(g.vals[0]))
			c.Consumed = append(c.Consumed, f64(g.vals[0]))
		}
		return g.outcome, ProbRegular
	}
	res := c.pbs.Resolve(core.Group{
		PC:      c.pc,
		CmpVal:  g.cmpVal,
		Outcome: g.outcome,
		Vals:    g.vals,
	})
	for i, r := range g.regs {
		c.SetReg(r, res.Vals[i])
	}
	if c.CaptureProb {
		c.Generated = append(c.Generated, f64(g.vals[0]))
		c.Consumed = append(c.Consumed, f64(res.Vals[0]))
	}
	var state ProbState
	switch res.Mode {
	case core.ModeRegular:
		state = ProbRegular
	case core.ModeBootstrap:
		state = ProbBootstrap
	case core.ModeSteered:
		state = ProbSteered
	}
	return res.Taken, state
}
