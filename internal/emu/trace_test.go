package emu

import (
	"testing"

	"repro/internal/progb"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestOutputReturnsCopy is the regression test for the aliasing bug where
// Output handed back the CPU's internal slice: a caller mutating the
// returned slice must not corrupt emulator state, and a slice returned
// mid-run must not change as the program emits further values.
func TestOutputReturnsCopy(t *testing.T) {
	b := progb.New("outs", false)
	b.MovInt(1, 7)
	b.Out(1)
	b.MovInt(1, 9)
	b.Out(1)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Run past the first OUT only.
	if err := cpu.Run(2); err != nil {
		t.Fatal(err)
	}
	first := cpu.Output()
	if len(first) != 1 || first[0] != 7 {
		t.Fatalf("mid-run output = %v, want [7]", first)
	}
	// Caller mutation must not reach the emulator...
	first[0] = 1234
	if err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	final := cpu.Output()
	if len(final) != 2 || final[0] != 7 || final[1] != 9 {
		t.Fatalf("final output = %v, want [7 9]", final)
	}
	// ...and continued execution must not have changed the earlier copy
	// (beyond the caller's own write).
	if first[0] != 1234 {
		t.Fatalf("mid-run copy mutated by later execution: %v", first)
	}
}

// recordingSink copies every delivered batch out of its buffer before
// returning. Per the TraceSink contract the buffer is reused — the CPU
// refills it after ConsumeTrace returns — so a sink keeping trace data
// beyond its own return must copy, as here.
type recordingSink struct {
	trace   []DynInstr
	batches int
	maxLen  int
}

func (s *recordingSink) ConsumeTrace(batch []DynInstr) {
	s.trace = append(s.trace, batch...)
	s.batches++
	if len(batch) > s.maxLen {
		s.maxLen = len(batch)
	}
}

// stepRun is the per-instruction reference for Run: it drives Step
// until HALT, a fault, or maxInstrs retired instructions (0 = no
// limit), then flushes the trace, as Run does on every return.
func stepRun(c *CPU, maxInstrs uint64) error {
	for !c.Halted() {
		if maxInstrs > 0 && c.Stats().Instructions >= maxInstrs {
			break
		}
		if err := c.Step(); err != nil {
			c.FlushTrace()
			return err
		}
	}
	c.FlushTrace()
	return nil
}

// TestTraceSinkMatchesStep proves fused batched delivery is a pure
// batching of the per-instruction Step stream: same instructions, same
// order, same fields, across chunked RunFor-style execution with
// flushes on every Run return.
func TestTraceSinkMatchesStep(t *testing.T) {
	w, err := workloads.ByName("PI")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(workloads.Params{Scale: 1}, true)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := New(prog, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	refSink := &recordingSink{}
	ref.SetTraceSink(refSink)
	if err := stepRun(ref, 300_000); err != nil {
		t.Fatal(err)
	}
	want := refSink.trace

	cpu, err := New(prog, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	cpu.SetTraceSink(sink)
	// Odd chunk sizes force flushes at non-batch boundaries.
	for budget := uint64(999); cpu.Stats().Instructions < 300_000 && !cpu.Halted(); budget += 1001 {
		target := cpu.Stats().Instructions + budget
		if target > 300_000 {
			target = 300_000
		}
		if err := cpu.Run(target); err != nil {
			t.Fatal(err)
		}
	}

	if len(sink.trace) != len(want) {
		t.Fatalf("sink saw %d instructions, Step reference %d", len(sink.trace), len(want))
	}
	for i := range want {
		if sink.trace[i] != want[i] {
			t.Fatalf("instruction %d diverged: %+v vs %+v", i, sink.trace[i], want[i])
		}
	}
	if sink.batches < 2 {
		t.Fatalf("expected multiple batch deliveries, got %d", sink.batches)
	}
	if sink.maxLen > TraceBatch {
		t.Fatalf("batch of %d exceeds batch capacity %d", sink.maxLen, TraceBatch)
	}
}

// TestFlushTraceAfterManualSteps: hand-driven Steps buffer trace entries
// until FlushTrace.
func TestFlushTraceAfterManualSteps(t *testing.T) {
	b := progb.New("steps", false)
	b.MovInt(1, 1)
	b.MovInt(2, 2)
	b.MovInt(3, 3)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(prog, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	cpu.SetTraceSink(sink)
	for i := 0; i < 3; i++ {
		if err := cpu.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.trace) != 0 {
		t.Fatalf("trace delivered before flush: %d entries", len(sink.trace))
	}
	cpu.FlushTrace()
	if len(sink.trace) != 3 {
		t.Fatalf("flush delivered %d entries, want 3", len(sink.trace))
	}
	if got := [3]int32{sink.trace[0].PC, sink.trace[1].PC, sink.trace[2].PC}; got != [3]int32{0, 1, 2} {
		t.Fatalf("trace PCs %v, want [0 1 2]", got)
	}
}
