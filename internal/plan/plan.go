// Package plan predecodes isa programs into dense execution plans shared
// by the functional emulator (internal/emu) and the timing model
// (internal/pipeline). The hot loops of both consumers pay per-retired-
// instruction costs that are really static properties of the program —
// immediate sign extension, LDC constant-pool resolution, branch-target
// arithmetic, condition decoding, source/destination register sets, and
// the functional-unit class/latency/occupancy lookup — so the plan
// computes all of them exactly once per program.
//
// A plan is built lazily and cached per *isa.Program: a program shared
// read-only across many concurrent simulations (the way internal/sweep's
// ProgramCache shares builds) decodes once, and the cache releases its
// entry when the program itself becomes unreachable, so per-run throwaway
// programs do not accumulate.
package plan

import (
	"runtime"
	"sync"
	"weak"

	"repro/internal/isa"
)

// H is a dense execution-handler code: what the emulator's dispatch
// switch actually has to do, with all static decoding folded away. MOVI
// and LDC, for example, collapse into the single HLoadImm handler whose
// operand is the predecoded 64-bit value.
type H uint8

// Handler codes. The emulator switches on these instead of isa.Op.
const (
	HNop H = iota
	HHalt

	HMov
	HLoadImm // MOVI (sign-extended) and LDC (pool-resolved): rd = Val

	HAdd
	HSub
	HMul
	HDiv
	HRem
	HAnd
	HOr
	HXor
	HShl
	HShr
	HNeg

	HAddImm
	HMulImm
	HAndImm
	HOrImm
	HXorImm
	HShlImm // shift count premasked into Val
	HShrImm

	HFAdd
	HFSub
	HFMul
	HFDiv
	HFSqrt
	HFNeg
	HFAbs
	HFExp
	HFLn
	HFSin
	HFCos
	HFMin
	HFMax
	HFFloor
	HItoF
	HFtoI

	HLd
	HLdb
	HSt
	HStb

	HCmp
	HCmpImm
	HFCmp

	HJmp // unconditional: Target is absolute
	HJcc // conditional: Val is a 4-entry truth table over the flags register

	HCall
	HRet

	HProbCmp
	HProbJmpMid // intermediate value-transfer PROB_JMP (no target)
	HProbJmp    // terminal PROB_JMP

	HRandU
	HRandN
	HRandI

	HOut

	// Fused two-instruction handler codes ("superinstructions"). The
	// decoder rewrites Decoded.HF — never H — to one of these when two
	// adjacent instructions inside a superblock interior match a pair the
	// block executor has a dedicated handler for: one dispatch then
	// executes both instructions, each from its own Decoded record. The
	// pair vocabulary is kept to pairs the workload corpus dispatches
	// (see DESIGN.md §10); only the store pair can fault, and it commits
	// the first instruction before faulting, as plain execution would.
	HPLoadImmLoadImm // MOVI/LDC ; MOVI/LDC
	HPLoadImmFAdd    // MOVI/LDC ; FADD
	HPLoadImmFMul    // MOVI/LDC ; FMUL
	HPFMulLoadImm    // FMUL ; MOVI/LDC
	HPFMulFAdd       // FMUL ; FADD
	HPFMulFSub       // FMUL ; FSUB
	HPFMulFMul       // FMUL ; FMUL
	HPFAddFMul       // FADD ; FMUL
	HPFSubFAdd       // FSUB ; FADD
	HPMovFMul        // MOV ; FMUL
	HPAddImmShlImm   // ADDI ; SHLI
	HPAddImmAddImm   // ADDI ; ADDI
	HPShrImmSt       // SHRI ; ST

	// Fused terminators: one or more straight-line instructions claimed
	// into the block-exit dispatch that consumes them (classic
	// compare/branch macro-fusion, plus the corpus's hottest
	// call/return-adjacent runs). These rewrite the terminator's HF — the
	// claimed instructions keep their single-instruction HF, and
	// Plan.IntEnd records the claimed extent per entry pc — and must stay
	// last in the enum: the block executor's fused-terminator entries are
	// exactly those with IntEnd < end-1, dispatching on the terminator's
	// HF.
	HPCmpJcc     // CMP ; Jcc
	HPCmpImmJcc  // CMPI ; Jcc
	HPFCmpJcc    // FCMP ; Jcc
	HPProbCmpJmp // PROB_CMP ; terminal PROB_JMP
	HPMovCall    // MOV ; CALL
	// HPDrand48Ret fuses the eight-instruction drand48 step
	// LD;MUL;ADDI;SHLI;SHRI;ST;ITOF;FMUL (drand48Seq) into the RET that
	// follows it: the whole body of the software runtime's rand_u01 leaf
	// (internal/workloads softlib), the hottest straight-line run in the
	// corpus. Entries into the middle of the run execute its instructions
	// as plain singles.
	HPDrand48Ret

	// NumH is the number of handler codes; the fused codes are
	// [HPLoadImmLoadImm, NumH).
	NumH
)

// pairTable maps adjacent interior handler pairs to their fused code.
var pairTable = map[[2]H]H{
	{HLoadImm, HLoadImm}: HPLoadImmLoadImm,
	{HLoadImm, HFAdd}:    HPLoadImmFAdd,
	{HLoadImm, HFMul}:    HPLoadImmFMul,
	{HFMul, HLoadImm}:    HPFMulLoadImm,
	{HFMul, HFAdd}:       HPFMulFAdd,
	{HFMul, HFSub}:       HPFMulFSub,
	{HFMul, HFMul}:       HPFMulFMul,
	{HFAdd, HFMul}:       HPFAddFMul,
	{HFSub, HFAdd}:       HPFSubFAdd,
	{HMov, HFMul}:        HPMovFMul,
	{HAddImm, HShlImm}:   HPAddImmShlImm,
	{HAddImm, HAddImm}:   HPAddImmAddImm,
	{HShrImm, HSt}:       HPShrImmSt,
}

// termPairTable maps a compare directly preceding a conditional branch
// to the fused terminator code.
var termPairTable = map[[2]H]H{
	{HCmp, HJcc}:         HPCmpJcc,
	{HCmpImm, HJcc}:      HPCmpImmJcc,
	{HFCmp, HJcc}:        HPFCmpJcc,
	{HProbCmp, HProbJmp}: HPProbCmpJmp,
	{HMov, HCall}:        HPMovCall,
}

// FUClass partitions instructions over the timing model's functional unit
// pools (moved here from internal/pipeline so the plan can carry it).
type FUClass uint8

// Functional unit classes.
const (
	FUALU FUClass = iota
	FUMul
	FUDiv
	FUFP
	FUFDiv
	FUFLong
	FUMem
	FUBranch
	NumFUClasses
)

// FUSet is a set of functional unit classes, one bit per class.
type FUSet uint8

// Has reports whether class c is in the set.
func (s FUSet) Has(c FUClass) bool { return s&(1<<c) != 0 }

// Static instruction property flags.
const (
	// FBranch marks any control transfer (conditional or not).
	FBranch uint8 = 1 << iota
	// FCond marks conditional control transfers.
	FCond
	// FHasTarget marks branches with a static PC-relative target.
	FHasTarget
	// FLoad marks data-memory reads.
	FLoad
	// FStore marks data-memory writes.
	FStore
	// FProb marks terminal (targeted) PROB_JMPs.
	FProb
	// FMidProb marks intermediate value-transfer PROB_JMPs, which are not
	// control transfers and take no prediction.
	FMidProb
)

// RdDiscard is the scratch destination register number the decoder
// substitutes for R0 destinations. The emulator pads its register file
// past the architectural registers, so the fused hot loop writes every
// result unconditionally: an R0 destination lands in this slot, which
// nothing ever reads, instead of costing a discard branch per
// instruction. Consumers of architectural dataflow use Src/Dst (where R0
// is elided), never Rd.
const RdDiscard = 0xFF

// Padding cells of the timing model's dataflow scoreboard. Decoded.Src
// and Decoded.Dst always hold 3 and 2 entries: a short source set is
// padded with SrcNone, a cell past the architectural registers that
// nothing writes, so its ready cycle stays zero; a short destination set
// is padded with DstSink, a cell nothing reads. The issue step then
// reads three cells and writes two with no trip counts. Only the first
// isa.NumDataflowRegs cells of a scoreboard are architectural state.
const (
	SrcNone          = isa.NumDataflowRegs
	DstSink          = isa.NumDataflowRegs + 1
	NumDataflowCells = isa.NumDataflowRegs + 2
)

// Decoded is one predecoded instruction. 32 bytes, laid out so the
// emulator's dispatch and the pipeline's dataflow walk touch one cache
// line per pair of instructions.
type Decoded struct {
	// Val is the handler operand: the sign-extended immediate as uint64
	// bits, the resolved LDC constant, the premasked shift count, or the
	// HJcc truth table (bit f set = taken when the flags register is f).
	Val uint64
	// Target is the absolute instruction index of a branch target (valid
	// when FHasTarget is set).
	Target int32

	Op isa.Op // original opcode, for faults and debug callbacks
	H  H
	Rd uint8 // destination register; R0 remapped to RdDiscard
	Ra uint8
	Rb uint8

	Flags uint8
	FU    FUClass
	Lat   uint8 // result latency in cycles
	Occ   uint8 // unit occupancy in cycles (1 = fully pipelined)

	// Kind is the decoded PROB_CMP comparison kind.
	Kind isa.CmpKind

	// Src/Dst are the architectural source and destination register sets
	// (including isa.FlagsReg), R0 already elided, padded to fixed arity
	// with SrcNone and DstSink.
	Src [3]uint8
	Dst [2]uint8

	// HF is the fused dispatch code the block executor switches on: equal
	// to H, or an HP pair code meaning "execute this instruction and its
	// successor in one dispatch" (the successor keeps its own single-
	// instruction HF, so control entering a block mid-pair still executes
	// correctly). A one-instruction dispatch (CPU.Step, a budget stop)
	// and every other consumer use H.
	HF H
}

// Plan is the decoded execution plan of one program.
type Plan struct {
	Code []Decoded

	// BlockEnd is the superblock map: BlockEnd[pc] is the exclusive end of
	// the maximal straight-line run containing pc. A run extends from any
	// entry point up to and including its terminator — the first
	// instruction at or after the entry that ends a block (see
	// Decoded.EndsBlock: any control transfer, any probabilistic
	// instruction, or HALT) — or to the end of the program if no
	// terminator intervenes. Because runs are defined per entry pc rather
	// than per leader, control may enter a run at any offset (a branch
	// into the middle of straight-line code, a checkpoint restored
	// mid-run) and the map still yields the correct tail: for every pc,
	// the run is straight-line except possibly its final instruction,
	// which is the only instruction in the run that may redirect control,
	// fault the group state, or halt. The emulator's fused dispatch
	// (internal/emu) executes one such tail per dispatch instead of one
	// instruction.
	//
	// The sign encodes whether the run has a terminator, so the dispatch
	// loop learns both bounds and exit kind from one load: BlockEnd[pc] =
	// end > 0 means Code[end-1] is the terminator of run [pc, end);
	// BlockEnd[pc] = -end means run [pc, end) extends to the program end
	// with no terminator (execution then falls off and faults on the
	// out-of-range pc). Use Block for the decoded form.
	BlockEnd []int32

	// IntEnd complements BlockEnd for the fused dispatch: IntEnd[pc] is
	// the absolute end of the interior (individually dispatched) prefix
	// of the run from pc. A fused terminator (HF of the run's final
	// instruction rewritten to a terminator-pair code) claims the
	// instructions in [IntEnd[pc], end-1) into the terminator dispatch,
	// so IntEnd < end-1 iff the entry executes a fused terminator; an
	// entry inside a claimed region gets IntEnd[pc] = end-1 and executes
	// the claimed instructions as plain interiors instead. The block
	// executor derives the interior count (IntEnd[pc] - pc) and the
	// fused-terminator test (IntEnd[pc] < end-1) from one load instead
	// of inspecting the terminator per dispatch.
	IntEnd []int32

	// FUs is the set of functional unit classes Code's instructions use:
	// the only classes a timing model running the program schedules.
	FUs FUSet
}

// Block returns the maximal straight-line run [pc, end) containing pc
// and whether its final instruction is a block terminator (false only
// when the run falls off the program end). It is the decoded form of
// BlockEnd[pc].
func (p *Plan) Block(pc int) (end int, term bool) {
	e := int(p.BlockEnd[pc])
	if e < 0 {
		return -e, false
	}
	return e, true
}

// EndsBlock reports whether this instruction terminates a superblock: any
// control transfer (jump, conditional jump, call, return, terminal
// PROB_JMP) or HALT. Everything else — including PROB_CMP and
// value-transfer PROB_JMPs, which manipulate the open-group state but
// never redirect control — is straight-line and may be fused into a
// block interior (group-state violations fault from the interior,
// committing the instructions before them, like any interior memory
// fault).
func (d *Decoded) EndsBlock() bool {
	return d.Flags&FBranch != 0 || d.H == HHalt
}

// computeBlocks fills BlockEnd with a single backward scan: a terminator
// at pc closes the run [.., pc+1); every pc above an unclosed suffix
// shares the (negatively encoded) program end.
func (p *Plan) computeBlocks() {
	n := len(p.Code)
	p.BlockEnd = make([]int32, n)
	end := int32(-n)
	for pc := n - 1; pc >= 0; pc-- {
		if p.Code[pc].EndsBlock() {
			end = int32(pc + 1)
		}
		p.BlockEnd[pc] = end
	}
}

// fusePairs initializes every HF to H, then greedily rewrites the HF of
// pair-start instructions to fused codes, anchored at each block's
// leader and never crossing a block terminator. Instructions consumed as
// the second half of a pair keep their single-instruction HF, so a
// branch targeting (or a checkpoint resuming at) the middle of a pair
// executes it as a plain single.
func (p *Plan) fusePairs() {
	for i := range p.Code {
		p.Code[i].HF = p.Code[i].H
	}
	p.IntEnd = make([]int32, len(p.Code))
	for pc := 0; pc < len(p.Code); {
		end, term := p.Block(pc)
		ni := end
		if term {
			ni--
			// Fuse straight-line predecessors into the terminator first; the
			// claimed instructions are then excluded from interior pairing
			// so no instruction is ever part of two fusions.
			if ni-1 >= pc {
				if tp, ok := termPairTable[[2]H{p.Code[ni-1].H, p.Code[ni].H}]; ok {
					p.Code[ni].HF = tp
					ni--
				} else if p.Code[ni].H == HRet && ni-len(drand48Seq) >= pc &&
					matchSeq(p.Code[ni-len(drand48Seq):ni], drand48Seq[:]) {
					p.Code[ni].HF = HPDrand48Ret
					ni -= len(drand48Seq)
				}
			}
		}
		// Per-entry interior extent: entries at or before the claimed
		// region execute the fused terminator; entries inside it execute
		// the claimed instructions as plain interiors instead (IntEnd
		// points past them, at the terminator).
		for j := pc; j < end; j++ {
			ie := ni
			if j > ni {
				ie = end
				if term {
					ie = end - 1
				}
			}
			p.IntEnd[j] = int32(ie)
		}
		for i := pc; i+1 < ni; {
			if hp, ok := pairTable[[2]H{p.Code[i].H, p.Code[i+1].H}]; ok {
				p.Code[i].HF = hp
				i += 2
			} else {
				i++
			}
		}
		pc = end
	}
}

// drand48Seq is the handler sequence HPDrand48Ret claims into its RET.
var drand48Seq = [8]H{HLd, HMul, HAddImm, HShlImm, HShrImm, HSt, HItoF, HFMul}

// matchSeq reports whether the instructions' handlers equal seq.
func matchSeq(code []Decoded, seq []H) bool {
	for i, h := range seq {
		if code[i].H != h {
			return false
		}
	}
	return true
}

// classify maps an opcode to its functional unit class, result latency,
// and unit occupancy (the cycles before the unit accepts another
// operation; 1 = fully pipelined). Latencies follow a Sandy-Bridge-like
// profile; the transcendental unit models the pipelined microcoded
// sequences of a modern FPU rather than a blocking iterative unit, so
// independent loop iterations overlap as they do on real hardware. Loads
// add cache latency on top.
func classify(op isa.Op) (class FUClass, lat, occ uint8) {
	switch op {
	case isa.MUL, isa.MULI:
		return FUMul, 3, 1
	case isa.DIV, isa.REM:
		return FUDiv, 20, 12
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FMIN, isa.FMAX, isa.FNEG, isa.FABS,
		isa.FFLOOR, isa.ITOF, isa.FTOI, isa.FCMP:
		return FUFP, 4, 1
	case isa.FDIV, isa.FSQRT:
		return FUFDiv, 16, 8
	case isa.FEXP, isa.FLN, isa.FSIN, isa.FCOS:
		return FUFLong, 20, 2
	case isa.RANDU, isa.RANDN, isa.RANDI:
		// Hardware RNG: medium latency, pipelined.
		return FUFLong, 8, 1
	case isa.LD, isa.LDB, isa.ST, isa.STB:
		return FUMem, 1, 1
	case isa.JMP, isa.JEQ, isa.JNE, isa.JLT, isa.JLE, isa.JGT, isa.JGE,
		isa.CALL, isa.RET, isa.PROBJMP:
		return FUBranch, 1, 1
	default:
		return FUALU, 1, 1
	}
}

// handlerFor maps an opcode to its dense handler.
var handlerFor = map[isa.Op]H{
	isa.NOP: HNop, isa.HALT: HHalt,
	isa.MOV: HMov, isa.MOVI: HLoadImm, isa.LDC: HLoadImm,
	isa.ADD: HAdd, isa.SUB: HSub, isa.MUL: HMul, isa.DIV: HDiv, isa.REM: HRem,
	isa.AND: HAnd, isa.OR: HOr, isa.XOR: HXor, isa.SHL: HShl, isa.SHR: HShr, isa.NEG: HNeg,
	isa.ADDI: HAddImm, isa.MULI: HMulImm, isa.ANDI: HAndImm, isa.ORI: HOrImm,
	isa.XORI: HXorImm, isa.SHLI: HShlImm, isa.SHRI: HShrImm,
	isa.FADD: HFAdd, isa.FSUB: HFSub, isa.FMUL: HFMul, isa.FDIV: HFDiv,
	isa.FSQRT: HFSqrt, isa.FNEG: HFNeg, isa.FABS: HFAbs, isa.FEXP: HFExp,
	isa.FLN: HFLn, isa.FSIN: HFSin, isa.FCOS: HFCos, isa.FMIN: HFMin,
	isa.FMAX: HFMax, isa.FFLOOR: HFFloor, isa.ITOF: HItoF, isa.FTOI: HFtoI,
	isa.LD: HLd, isa.LDB: HLdb, isa.ST: HSt, isa.STB: HStb,
	isa.CMP: HCmp, isa.CMPI: HCmpImm, isa.FCMP: HFCmp,
	isa.JMP: HJmp,
	isa.JEQ: HJcc, isa.JNE: HJcc, isa.JLT: HJcc, isa.JLE: HJcc, isa.JGT: HJcc, isa.JGE: HJcc,
	isa.CALL: HCall, isa.RET: HRet,
	isa.PROBCMP: HProbCmp, isa.PROBJMP: HProbJmp,
	isa.RANDU: HRandU, isa.RANDN: HRandN, isa.RANDI: HRandI,
	isa.OUT: HOut,
}

// jccTruth returns the 4-entry truth table of a conditional jump over the
// flags register (bit 0 = LT, bit 1 = EQ): bit f of the result is the
// branch direction when the flags register holds f.
func jccTruth(op isa.Op) uint64 {
	var truth uint64
	for f := uint64(0); f < 4; f++ {
		lt := f&1 != 0
		eq := f&2 != 0
		var taken bool
		switch op {
		case isa.JEQ:
			taken = eq
		case isa.JNE:
			taken = !eq
		case isa.JLT:
			taken = lt
		case isa.JLE:
			taken = lt || eq
		case isa.JGT:
			taken = !lt && !eq
		case isa.JGE:
			taken = !lt
		}
		if taken {
			truth |= 1 << f
		}
	}
	return truth
}

// decode builds the Decoded form of one instruction. The program has
// already been validated, so pool indices and targets are in range.
func decode(prog *isa.Program, pc int, ins isa.Instr) Decoded {
	d := Decoded{
		Op: ins.Op,
		Rd: uint8(ins.Rd),
		Ra: uint8(ins.Ra),
		Rb: uint8(ins.Rb),
	}
	if d.Rd == 0 {
		d.Rd = RdDiscard
	}
	d.H = handlerFor[ins.Op]
	d.FU, d.Lat, d.Occ = classify(ins.Op)

	// Handler operand.
	switch ins.Op {
	case isa.LDC:
		d.Val = prog.Consts[ins.Imm]
	case isa.SHLI, isa.SHRI:
		d.Val = uint64(uint32(ins.Imm) & 63)
	case isa.JEQ, isa.JNE, isa.JLT, isa.JLE, isa.JGT, isa.JGE:
		d.Val = jccTruth(ins.Op)
	case isa.PROBCMP:
		d.Kind = isa.CmpKind(ins.Imm)
	default:
		d.Val = uint64(int64(ins.Imm)) // sign-extended immediate
	}

	// Static property flags and the absolute branch target.
	if ins.Op.IsBranch() {
		d.Flags |= FBranch
		if ins.Op.IsCondBranch() {
			d.Flags |= FCond
		}
		if t, ok := ins.Target(pc); ok {
			d.Flags |= FHasTarget
			d.Target = int32(t)
		}
	}
	if ins.Op.IsLoad() {
		d.Flags |= FLoad
	}
	if ins.Op.IsStore() {
		d.Flags |= FStore
	}
	if ins.Op == isa.PROBJMP {
		if ins.Imm == isa.NoTarget {
			d.Flags |= FMidProb
			d.H = HProbJmpMid
		} else {
			d.Flags |= FProb
		}
	}

	// Register dataflow sets, padded to fixed arity.
	d.Src = [3]uint8{SrcNone, SrcNone, SrcNone}
	d.Dst = [2]uint8{DstSink, DstSink}
	var buf [4]isa.Reg
	for i, r := range ins.SrcRegs(buf[:0]) {
		d.Src[i] = uint8(r)
	}
	for i, r := range ins.DstRegs(buf[:0]) {
		d.Dst[i] = uint8(r)
	}
	return d
}

// build decodes a validated program.
func build(prog *isa.Program) *Plan {
	p := &Plan{Code: make([]Decoded, len(prog.Code))}
	for pc, ins := range prog.Code {
		p.Code[pc] = decode(prog, pc, ins)
		p.FUs |= 1 << p.Code[pc].FU
	}
	p.computeBlocks()
	p.fusePairs()
	return p
}

// cacheEntry is one program's cached plan (or validation error).
type cacheEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

// cache maps live programs to their plans. Keys are weak pointers so the
// cache never extends a program's lifetime; a cleanup removes the entry
// when the program is collected.
var cache sync.Map // weak.Pointer[isa.Program] -> *cacheEntry

// For returns the decoded plan of prog, validating and building it on
// first use and sharing the result across all subsequent callers for the
// lifetime of the program. Programs handed to For must no longer be
// mutated: the plan (including resolved constants and targets) is fixed
// at first decode, exactly like the read-only sharing contract of
// sim.Config.Program.
func For(prog *isa.Program) (*Plan, error) {
	k := weak.Make(prog)
	v, ok := cache.Load(k)
	if !ok {
		v, ok = cache.LoadOrStore(k, &cacheEntry{})
		if !ok {
			// This goroutine inserted the entry; arrange its removal when
			// the program dies.
			runtime.AddCleanup(prog, func(key weak.Pointer[isa.Program]) {
				cache.Delete(key)
			}, k)
		}
	}
	e := v.(*cacheEntry)
	e.once.Do(func() {
		if err := prog.Validate(); err != nil {
			e.err = err
			return
		}
		e.plan = build(prog)
	})
	return e.plan, e.err
}
