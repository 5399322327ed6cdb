package sim

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// TestNewSessionAllocation pins the construction cost of a default
// full-timing session: timing-model storage grows with what a run
// touches (a 1,024-cycle FU ring, cache chunks on first access), so
// building a session allocates no megabyte-scale tables up front.
func TestNewSessionAllocation(t *testing.T) {
	prog, err := BuildProgram("PI", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("PI", WithProgram(prog)); err != nil { // predecode the plan once
		t.Fatal(err)
	}
	const sessions = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		if _, err := New("PI", WithProgram(prog)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / sessions
	t.Logf("sim.New allocates %d bytes per default full-timing session", per)
	if per >= 128<<10 {
		t.Fatalf("sim.New allocates %d bytes per session, want < %d", per, 128<<10)
	}
}

// TestTimedCheckpointSize pins the size of a timed checkpoint: it
// encodes live state only (FU cells in flight, touched cache chunks),
// not the capacity of the machine's structures.
func TestTimedCheckpointSize(t *testing.T) {
	s, err := New("PI")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(100_000); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	n := len(ck.Bytes())
	t.Logf("timed PI checkpoint at 100k instructions: %d bytes", n)
	if n >= 64<<10 {
		t.Fatalf("timed PI checkpoint is %d bytes, want < %d", n, 64<<10)
	}
}
