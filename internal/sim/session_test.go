package sim

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// TestRunForMatchesRun: chunked execution must retire the same
// instruction stream as a one-shot run, at any chunk size, and therefore
// end with byte-identical metrics and outputs.
func TestRunForMatchesRun(t *testing.T) {
	const cap = 200_000
	oneShot, err := Run(Config{Workload: "PI", Seed: 9, PBS: true, MaxInstrs: cap})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []uint64{1, 7, 1000, 65536, 1 << 40} {
		s, err := New("PI", WithSeed(9), WithPBS(true), WithMaxInstrs(cap))
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for {
			done, err := s.RunFor(chunk)
			if err != nil {
				t.Fatal(err)
			}
			steps++
			if done {
				break
			}
		}
		res := s.Result()
		if res.Timing != oneShot.Timing {
			t.Errorf("chunk %d: timing diverged after %d steps:\n got %+v\nwant %+v",
				chunk, steps, res.Timing, oneShot.Timing)
		}
		if res.Emu != oneShot.Emu {
			t.Errorf("chunk %d: emu stats diverged", chunk)
		}
		if res.PBSStats != oneShot.PBSStats {
			t.Errorf("chunk %d: PBS stats diverged", chunk)
		}
		if hashU64(res.Outputs) != hashU64(oneShot.Outputs) {
			t.Errorf("chunk %d: outputs diverged", chunk)
		}
	}
}

// TestRunForOverflow: a huge "run the rest" chunk must not wrap the
// internal instruction target and stall the session.
func TestRunForOverflow(t *testing.T) {
	s, err := New("PI", WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	done, err := s.RunFor(math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if !done || !s.Halted() {
		t.Errorf("overflowing chunk stalled the session: done=%v halted=%v at %d instructions",
			done, s.Halted(), s.Instructions())
	}
}

// TestRunForRunsToHalt: without a MaxInstrs cap, chunked stepping must
// reach the same HALT as sim.Run, with Done and Halted agreeing.
func TestRunForRunsToHalt(t *testing.T) {
	oneShot, err := Run(Config{Workload: "Genetic", Seed: 3, PBS: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("Genetic", WithSeed(3), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := s.RunFor(100_000)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if !s.Halted() || !s.Done() {
		t.Error("session not halted after RunFor loop completed")
	}
	if s.Result().Timing != oneShot.Timing {
		t.Error("chunked run to halt diverged from one-shot")
	}
	if done, err := s.RunFor(1); err != nil || !done {
		t.Errorf("RunFor after halt: done=%v err=%v", done, err)
	}
}

// stepSnapshots steps s every instructions at a time to the end of the
// run and returns the Snapshot taken before the first step and after
// each step: one per full interval, then the trailing partial one
// unless the run ended on a boundary.
func stepSnapshots(s *Session, every uint64) ([]Metrics, error) {
	snaps := []Metrics{s.Snapshot()}
	for {
		done, err := s.RunFor(every)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s.Snapshot())
		if done {
			return snaps, nil
		}
	}
}

// TestSnapshotIntervals: RunFor stepping stops exactly on interval
// boundaries, interval deltas chain back to totals and show the PBS
// warm-up, and the final Snapshot sees the closing partial interval and
// equals the Result's component stats.
func TestSnapshotIntervals(t *testing.T) {
	const every = 50_000
	s, err := New("PI", WithSeed(5), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := stepSnapshots(s, every)
	if err != nil {
		t.Fatal(err)
	}
	full, final := snaps[:len(snaps)-1], snaps[len(snaps)-1]
	if len(full) < 2 {
		t.Fatal("run ended inside the first interval")
	}
	var sumInstr, sumCycles, sumMispredicts, sumSteered uint64
	for i := 1; i < len(full); i++ {
		snap, d := full[i], full[i].Timing.Delta(full[i-1].Timing)
		if want := uint64(i) * every; snap.Emu.Instructions != want {
			t.Errorf("sample %d at %d instructions, want %d", i, snap.Emu.Instructions, want)
		}
		if d.Instructions != every {
			t.Errorf("sample %d delta %d instructions, want %d", i, d.Instructions, every)
		}
		sumInstr += d.Instructions
		sumCycles += d.Cycles
		sumMispredicts += d.Mispredicts
		sumSteered += snap.PBSStats.Steered - full[i-1].PBSStats.Steered
		if d.IPC() <= 0 {
			t.Errorf("sample %d: interval IPC not positive", i)
		}
	}
	last := full[len(full)-1]
	// The PBS warm-up (§III-B): the unit runs a branch's first InFlight
	// instances as regular branches, so bootstrapping happens in the
	// first interval only, steering covers nearly every probabilistic
	// branch by the last full interval, and probabilistic mispredictions
	// fall to at most half the first interval's.
	firstD, lastD := full[1].Timing.Delta(full[0].Timing), last.Timing.Delta(full[len(full)-2].Timing)
	if firstD.ProbBoot == 0 || lastD.ProbBoot != 0 {
		t.Errorf("bootstrapped prob branches: first interval %d, last full %d; want some, then none", firstD.ProbBoot, lastD.ProbBoot)
	}
	if lastD.SteerRate() < 0.9 {
		t.Errorf("steering never warmed up: %.2f of prob branches steered in the last full interval", lastD.SteerRate())
	}
	if 2*lastD.MispredictsProb > firstD.MispredictsProb {
		t.Errorf("prob mispredictions did not collapse: first interval %d, last full %d", firstD.MispredictsProb, lastD.MispredictsProb)
	}
	if sumInstr != last.Timing.Instructions || sumCycles != last.Timing.Cycles ||
		sumMispredicts != last.Timing.Mispredicts || sumSteered != last.PBSStats.Steered {
		t.Error("deltas do not sum to totals")
	}

	if final.Emu.Instructions <= last.Emu.Instructions || final.Emu.Instructions >= last.Emu.Instructions+every {
		t.Errorf("final snapshot at %d instructions, want a partial interval past %d", final.Emu.Instructions, last.Emu.Instructions)
	}
	// A snapshot carries exactly the component structs Result does.
	res := s.Result()
	if final.Timing != res.Timing || final.Emu != res.Emu || final.PBSStats != res.PBSStats {
		t.Error("snapshot metrics disagree with the result's component stats")
	}
}

// TestProgramOnlySession: a raw program runs without any known
// workload name — through the Session API and through the Run wrapper
// (the old harness required a valid Workload even with Program set).
func TestProgramOnlySession(t *testing.T) {
	prog, err := BuildProgram("PI", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("", WithProgram(prog), WithSeed(2), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot().Emu.Instructions == 0 {
		t.Error("program-only session retired nothing")
	}

	res, err := Run(Config{Program: prog, Seed: 2, PBS: true})
	if err != nil {
		t.Fatalf("Run with Program but no workload name: %v", err)
	}
	if res.Workload != "" {
		t.Errorf("label %q, want empty", res.Workload)
	}
	named, err := Run(Config{Workload: "my-custom-kernel", Program: prog, Seed: 2, PBS: true})
	if err != nil {
		t.Fatalf("Run with Program and unknown label: %v", err)
	}
	if named.Workload != "my-custom-kernel" {
		t.Errorf("label %q not preserved", named.Workload)
	}
	if named.Timing != res.Timing {
		t.Error("label changed the simulation")
	}
}

// TestSessionErrors: construction and unknown-name failures surface cleanly.
func TestSessionErrors(t *testing.T) {
	if _, err := New("nope"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload: %v", err)
	}
	if _, err := New("PI", WithPredictor("bogus")); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("unknown predictor: %v", err)
	}
	if _, err := New(""); err == nil {
		t.Error("empty workload without a program accepted")
	}
}

// TestConcurrentSessionsShareProgram: many sessions over one read-only
// program build, stepped interval by interval concurrently — the
// contract the race-detector CI job guards. Every session's snapshots
// equal those of a reference session stepped alone.
func TestConcurrentSessionsShareProgram(t *testing.T) {
	prog, err := BuildProgram("PI", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithProgram(prog), WithSeed(1), WithPBS(true), WithMaxInstrs(120_000)}
	ref, err := New("PI", opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stepSnapshots(ref, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 {
		t.Fatalf("reference took %d snapshots, want 4", len(want))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New("PI", opts...)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := stepSnapshots(s, 40_000)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want) {
				t.Error("concurrent session diverged from reference")
			}
		}()
	}
	wg.Wait()
}

// TestSteadyStateAllocs pins the allocation freedom of the steady
// state: once warm, advancing a session allocates nothing per batch or
// per instruction (the trace buffer is reused and the retire path is
// allocation-free).
func TestSteadyStateAllocs(t *testing.T) {
	s, err := New("PI", WithSeed(5), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(100_000); err != nil { // warm up pools and output buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.RunFor(20_000); err != nil {
			t.Fatal(err)
		}
	})
	// ~78 batches reach the pipeline per run; a leak of even one
	// allocation per batch would blow far past this bound, which only
	// tolerates the occasional output-append amortization.
	if avg > 8 {
		t.Fatalf("advance allocates %.1f times per 20k-instruction chunk", avg)
	}
}
