package emu

// Differential tests for superblock dispatch: runFused (the default Run
// path) must be observably identical to the per-instruction Step loop —
// same architectural state, same trace stream, same fault, same
// instruction accounting — over random programs, random budgets, and
// block-boundary edge cases.

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/progb"
	"repro/internal/rng"
)

// genProgram emits a random but always-terminating probabilistic
// program: straight-line segments of ALU/float/memory/random-draw
// instructions inside a bounded loop, with integer, immediate and float
// conditional branches, probabilistic branches (including Category-2
// value lists), two called subroutines (one ending in the drand48 step
// the workloads' rand_u01 runs), and outputs. The same seed always
// yields the same program. TestCorpusAssignsEveryFusedCode checks that
// the corpus seeds between them assign every fused handler code.
func genProgram(r *rand.Rand) (*isa.Program, error) {
	b := progb.New("fuzz", true)
	memBase := b.AllocWords(16)

	const (
		intLo, intHi     = isa.Reg(1), isa.Reg(8)
		fltLo, fltHi     = isa.Reg(10), isa.Reg(13)
		probReg          = isa.Reg(14)
		halfReg          = isa.Reg(15)
		extraReg         = isa.Reg(16)
		addrReg          = isa.Reg(20)
		idxReg, boundReg = isa.Reg(21), isa.Reg(22)
	)
	intReg := func() isa.Reg { return intLo + isa.Reg(r.Intn(int(intHi-intLo)+1)) }
	fltReg := func() isa.Reg { return fltLo + isa.Reg(r.Intn(int(fltHi-fltLo)+1)) }

	for reg := intLo; reg <= intHi; reg++ {
		b.MovInt(reg, int64(r.Intn(1000)+1))
	}
	for reg := fltLo; reg <= fltHi; reg++ {
		b.MovFloat(reg, r.Float64()+0.25)
	}
	b.MovFloat(halfReg, 0.5)
	b.MovInt(addrReg, memBase)
	b.MovInt(boundReg, int64(r.Intn(20)+2))

	straight := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(17) {
			case 0:
				b.Op3(isa.ADD, intReg(), intReg(), intReg())
			case 1:
				b.Op3(isa.SUB, intReg(), intReg(), intReg())
			case 2:
				b.Op3(isa.MUL, intReg(), intReg(), intReg())
			case 3:
				b.Op3(isa.XOR, intReg(), intReg(), intReg())
			case 4:
				b.AddI(intReg(), intReg(), int32(r.Intn(64)))
			case 5:
				b.OpI(isa.SHLI, intReg(), intReg(), int32(r.Intn(8)))
			case 6:
				b.Op3(isa.FADD, fltReg(), fltReg(), fltReg())
			case 7:
				b.Op3(isa.FMUL, fltReg(), fltReg(), fltReg())
			case 8:
				b.Store(addrReg, int32(r.Intn(16))*8, intReg())
			case 9:
				b.Load(intReg(), addrReg, int32(r.Intn(16))*8)
			case 10:
				b.RandU(fltReg())
			case 11:
				b.Mov(intReg(), intReg())
			case 12:
				b.MovInt(intReg(), int64(r.Intn(2000)-1000))
			case 13:
				b.MovFloat(fltReg(), r.Float64()+0.25)
			case 14:
				b.Op3(isa.FSUB, fltReg(), fltReg(), fltReg())
			case 15:
				b.Op2(isa.ITOF, fltReg(), intReg())
			case 16:
				v := intReg()
				b.OpI(isa.SHRI, v, intReg(), int32(r.Intn(8)))
				b.Store(addrReg, int32(r.Intn(16))*8, v)
			}
		}
	}

	b.ForN(idxReg, boundReg, func() {
		straight(r.Intn(10) + 1)
		b.IfElse(isa.CmpLT, intReg(), intReg(), func() {
			straight(r.Intn(5) + 1)
		}, func() {
			straight(r.Intn(5) + 1)
		})
		// Probabilistic branch over a fresh uniform; sometimes carry a
		// Category-2 extra value (exercises the mid PROB_JMP interior).
		skip := b.AutoLabel("skip")
		b.RandU(probReg)
		var extras []isa.Reg
		if r.Intn(2) == 0 {
			b.RandU(extraReg)
			extras = []isa.Reg{extraReg}
		}
		b.MarkedBranchIf(isa.CmpLT|isa.CmpFloat, probReg, halfReg, extras, skip)
		straight(r.Intn(4) + 1)
		b.Label(skip)
		if r.Intn(2) == 0 {
			b.Call("leaf")
		}
		straight(r.Intn(6) + 1)
		skipI := b.AutoLabel("skipi")
		b.BranchIfI(isa.CmpLT, intReg(), int32(r.Intn(1000)), skipI)
		straight(r.Intn(3) + 1)
		b.Label(skipI)
		skipF := b.AutoLabel("skipf")
		b.BranchIf(isa.CmpGE|isa.CmpFloat, fltReg(), halfReg, skipF)
		straight(r.Intn(3) + 1)
		b.Label(skipF)
		if r.Intn(2) == 0 {
			b.Call("u01")
		}
	})
	b.Out(intReg())
	b.Out(fltReg())
	b.Halt()
	b.Label("leaf")
	straight(r.Intn(6) + 1)
	b.Ret()
	// The drand48 step, with random registers: the plan claims the eight
	// instructions into the RET (plan.HPDrand48Ret).
	b.Label("u01")
	straight(r.Intn(3))
	seed, off := intReg(), int32(r.Intn(16))*8
	b.Load(seed, addrReg, off)
	b.Op3(isa.MUL, seed, seed, intReg())
	b.AddI(seed, seed, int32(r.Intn(64)))
	b.OpI(isa.SHLI, seed, seed, 16)
	b.OpI(isa.SHRI, seed, seed, 16)
	b.Store(addrReg, off, seed)
	u := fltReg()
	b.Op2(isa.ITOF, u, seed)
	b.Op3(isa.FMUL, u, u, fltReg())
	b.Ret()
	return b.Finish()
}

// archBytes serializes the CPU's complete architectural state plus its
// RNG stream for byte-level comparison and restore.
func archBytes(t *testing.T, c *CPU) []byte {
	t.Helper()
	enc := ckpt.NewEncoder()
	if err := c.CheckpointState(enc.Section("emu")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := c.RNG().CheckpointState(enc.Section("rng")); err != nil {
		t.Fatalf("checkpoint rng: %v", err)
	}
	data, err := enc.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// runDifferential executes prog twice from identical initial state —
// once through the fused Run path with a batching sink, once through
// the per-instruction Step loop (stepRun) — splitting the
// run at the given budgets, and fails the test on any observable
// divergence: architectural state, stats, trace stream, or fault.
func runDifferential(t *testing.T, prog *isa.Program, seed uint64, budgets []uint64) {
	t.Helper()

	fused, err := New(prog, rng.New(seed), nil)
	if err != nil {
		t.Fatalf("new fused: %v", err)
	}
	sink := &recordingSink{}
	fused.SetTraceSink(sink)

	ref, err := New(prog, rng.New(seed), nil)
	if err != nil {
		t.Fatalf("new ref: %v", err)
	}
	refSink := &recordingSink{}
	ref.SetTraceSink(refSink)
	// Run's budget is an absolute retired-instruction total, so sort the
	// split points ascending to make each one an effective stop.
	sort.Slice(budgets, func(i, j int) bool { return budgets[i] < budgets[j] })
	for _, budget := range append(budgets, 0) {
		errF := fused.Run(budget)
		errR := stepRun(ref, budget)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("fault divergence at budget %d: fused=%v ref=%v", budget, errF, errR)
		}
		if errF != nil {
			if errF.Error() != errR.Error() {
				t.Fatalf("fault message divergence: fused=%q ref=%q", errF, errR)
			}
			break
		}
		if got, want := fused.Stats(), ref.Stats(); got != want {
			t.Fatalf("stats divergence at budget %d: fused=%+v ref=%+v", budget, got, want)
		}
		if got, want := fused.PC(), ref.PC(); got != want {
			t.Fatalf("pc divergence at budget %d: fused=%d ref=%d", budget, got, want)
		}
		fused.FlushTrace()
		if !bytes.Equal(archBytes(t, fused), archBytes(t, ref)) {
			t.Fatalf("architectural state divergence at budget %d", budget)
		}
		if fused.Halted() {
			break
		}
	}

	refTrace := refSink.trace
	if len(sink.trace) != len(refTrace) {
		t.Fatalf("trace length divergence: fused=%d ref=%d", len(sink.trace), len(refTrace))
	}
	for i := range refTrace {
		if sink.trace[i] != refTrace[i] {
			t.Fatalf("trace divergence at %d: fused=%+v ref=%+v", i, sink.trace[i], refTrace[i])
		}
	}
}

// TestFusedMatchesStep runs the differential over many random programs,
// both uninterrupted and split at awkward budgets that land
// mid-superblock and mid-fusion.
func TestFusedMatchesStep(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog, err := genProgram(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var budgets []uint64
		for len(budgets) < int(seed%4) {
			budgets = append(budgets, uint64(r.Intn(60)+1))
		}
		t.Run("", func(t *testing.T) { runDifferential(t, prog, uint64(seed), budgets) })
	}
}

// TestCorpusAssignsEveryFusedCode fails when a fused handler code
// appears in none of TestFusedMatchesStep's programs, so a fused handler
// cannot go unchecked against the plain codes it replaces.
func TestCorpusAssignsEveryFusedCode(t *testing.T) {
	seen := make(map[plan.H]bool)
	for seed := int64(1); seed <= 40; seed++ {
		prog, err := genProgram(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := plan.For(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range p.Code {
			seen[d.HF] = true
		}
	}
	for h := plan.HPLoadImmLoadImm; h < plan.NumH; h++ {
		if !seen[h] {
			t.Errorf("fused handler code %d is assigned in no corpus program", h)
		}
	}
}

// FuzzFusedVsStep is the open-ended version: the fuzzer picks the
// program seed, the RNG seed, and a budget split point.
func FuzzFusedVsStep(f *testing.F) {
	f.Add(int64(1), int64(1), uint64(0))
	f.Add(int64(7), int64(3), uint64(13))
	f.Add(int64(42), int64(9), uint64(257))
	f.Fuzz(func(t *testing.T, progSeed, rngSeed int64, budget uint64) {
		prog, err := genProgram(rand.New(rand.NewSource(progSeed)))
		if err != nil {
			t.Skip() // builder rejected the combination; nothing to compare
		}
		if rngSeed == 0 {
			rngSeed = 1
		}
		var budgets []uint64
		if budget != 0 {
			budgets = []uint64{budget % 5000}
		}
		runDifferential(t, prog, uint64(rngSeed), budgets)
	})
}

// TestRunBudgetBlockBoundary pins the edge case where the instruction
// budget expires exactly at a superblock boundary: the fused loop must
// stop with precisely the budgeted count, at the same PC as the
// reference, and resume cleanly.
func TestRunBudgetBlockBoundary(t *testing.T) {
	b := progb.New("boundary", false)
	b.MovInt(1, 0)
	b.MovInt(2, 1_000_000)
	b.Label("top")
	b.AddI(1, 1, 1) // 5-instruction loop body: block is [top, Jcc]
	b.AddI(3, 3, 1)
	b.AddI(4, 4, 1)
	b.BranchIf(isa.CmpLT, 1, 2, "top")
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Loop block = AddI,AddI,AddI,Cmp,Jcc = 5 instructions; after the
	// 2-instruction preamble, budget 2+5k lands exactly on a block end,
	// 2+5k±1 lands mid-block. All must stop at the exact count.
	for _, budget := range []uint64{7, 12, 52, 6, 8, 11, 13, 2, 3, 1} {
		cpu, err := New(prog, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.Run(budget); err != nil {
			t.Fatal(err)
		}
		if got := cpu.Stats().Instructions; got != budget {
			t.Errorf("budget %d: retired %d", budget, got)
		}
		ref, err := New(prog, rng.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := stepRun(ref, budget); err != nil {
			t.Fatal(err)
		}
		if cpu.PC() != ref.PC() {
			t.Errorf("budget %d: pc %d, reference %d", budget, cpu.PC(), ref.PC())
		}
		// Resuming with a one-larger total budget must retire exactly one
		// more instruction.
		if err := cpu.Run(budget + 1); err != nil {
			t.Fatal(err)
		}
		if got := cpu.Stats().Instructions; got != budget+1 {
			t.Errorf("budget %d: resume retired to %d, want %d", budget, got, budget+1)
		}
	}
}

// TestMidBlockCheckpointState proves a checkpoint taken after a budget
// stop that lands mid-superblock captures a state byte-identical to the
// per-instruction path stopped at the same count, and that both resume
// to the same final state.
func TestMidBlockCheckpointState(t *testing.T) {
	prog, err := genProgram(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	const cut = 37 // deliberately prime: lands inside a superblock

	fused, err := New(prog, rng.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.Run(cut); err != nil {
		t.Fatal(err)
	}
	ref, err := New(prog, rng.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := stepRun(ref, cut); err != nil {
		t.Fatal(err)
	}
	mid := archBytes(t, fused)
	if !bytes.Equal(mid, archBytes(t, ref)) {
		t.Fatal("mid-block checkpoint differs between fused and per-instruction execution")
	}

	// Restore the mid-block state into a fresh CPU and finish; the
	// original finishing directly must agree byte-for-byte.
	restored, err := New(prog, rng.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ckpt.NewDecoder(mid)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := dec.Section("emu")
	if !ok {
		t.Fatal("missing emu section")
	}
	if err := restored.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	rr, ok := dec.Section("rng")
	if !ok {
		t.Fatal("missing rng section")
	}
	if err := restored.RNG().RestoreState(rr); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := fused.Run(0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archBytes(t, restored), archBytes(t, fused)) {
		t.Fatal("resumed-from-checkpoint final state differs from uninterrupted run")
	}
}
