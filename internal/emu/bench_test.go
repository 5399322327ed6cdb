package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// benchProgram builds the PI workload program once for the emulator
// benchmarks (probabilistic marking on, default scale).
func benchProgram(b *testing.B) *isa.Program {
	b.Helper()
	w, err := workloads.ByName("PI")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Build(workloads.DefaultParams(), true)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkEmuStep measures raw functional-emulation throughput over the
// predecoded execution plan: no PBS unit, no trace consumer. instr/s is
// the headline; allocs/op stays a small constant regardless of the
// millions of instructions retired per iteration (the steady-state Step
// path allocates nothing).
func BenchmarkEmuStep(b *testing.B) {
	prog := benchProgram(b)
	if _, err := New(prog, rng.New(1), nil); err != nil { // decode outside the timer
		b.Fatal(err)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := New(prog, rng.New(uint64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cpu.Run(0); err != nil {
			b.Fatal(err)
		}
		instrs += cpu.Stats().Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkTraceBatchDelivery measures the batched trace path against a
// sink that only counts, isolating the delivery overhead the TraceSink
// redesign removed from the per-instruction loop.
func BenchmarkTraceBatchDelivery(b *testing.B) {
	prog := benchProgram(b)
	var seen uint64
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := New(prog, rng.New(uint64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		cpu.SetTraceSink(countingSink{&seen})
		if err := cpu.Run(0); err != nil {
			b.Fatal(err)
		}
		instrs += cpu.Stats().Instructions
	}
	if seen != instrs {
		b.Fatalf("sink saw %d of %d instructions", seen, instrs)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
}

// countingSink reads only the batch length, so it needs no copy: the
// buffer is the CPU's to reuse once ConsumeTrace returns, and this sink
// keeps no reference to it.
type countingSink struct{ n *uint64 }

func (s countingSink) ConsumeTrace(batch []DynInstr) { *s.n += uint64(len(batch)) }
