package sim

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// TestNewSessionAllocation pins the construction cost of a default
// full-timing session: timing-model storage grows with what a run
// touches (FU rings only for the unit classes the program uses, 32
// cycles each to start; cache tag storage for a set's granule on first
// access), so building a session allocates no megabyte-scale tables up
// front. It measures about 35 KB (Go 1.24, amd64) with empty pools:
// none of these sessions is closed, so none builds on another's
// storage.
func TestNewSessionAllocation(t *testing.T) {
	prog, err := BuildProgram("PI", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("PI", WithProgram(prog)); err != nil { // predecode the plan once
		t.Fatal(err)
	}
	emptyPools()
	per := allocPer(8, func() {
		if _, err := New("PI", WithProgram(prog)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sim.New allocates %d bytes per default full-timing session", per)
	if per >= 40<<10 {
		t.Fatalf("sim.New allocates %d bytes per session, want < %d", per, 40<<10)
	}
}

// TestShortGroupAllocation pins what a short two-predictor stream group
// allocates from construction to Close, the shape of the served sweep
// points a worker runs one after another: Photon, TAGE-SC-L and
// tournament members, 50k instructions. The first group on empty pools
// measures about 88 KB (Go 1.24, amd64). The next one, built after the
// first was closed, measures about 1 KB: predictor tables, cache
// granules, ROB and FU rings and the emulator's memory image and trace
// buffer all come from the group before. Under -race sync.Pool drops a
// random share of what is put back, so there the recycled group is held
// to the first group's bound only.
func TestShortGroupAllocation(t *testing.T) {
	prog, err := BuildProgram("Photon", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		s, err := New("Photon", WithProgram(prog), WithMaxInstrs(50_000))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddMember(WithProgram(prog), WithMaxInstrs(50_000), WithPredictor(PredTournament)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	run() // predecode the plan once
	emptyPools()
	first := allocPer(1, run)
	t.Logf("the first 50k-instruction two-predictor Photon group allocates %d bytes", first)
	if first >= 104<<10 {
		t.Fatalf("the first group allocates %d bytes, want < %d", first, 104<<10)
	}
	per := allocPer(4, run)
	t.Logf("a recycled group allocates %d bytes", per)
	limit := uint64(4 << 10)
	if raceEnabled {
		limit = 104 << 10
	}
	if per >= limit {
		t.Fatalf("the recycled group allocates %d bytes, want < %d", per, limit)
	}
}

// allocPer returns the heap bytes one call of f allocates, averaged
// over n calls.
func allocPer(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
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
