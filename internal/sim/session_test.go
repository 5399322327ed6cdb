package sim

import (
	"math"
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

// TestObserveIntervals: observers fire exactly on their instruction
// boundaries, deltas chain back to totals, and a final Snapshot sees the
// closing partial interval.
func TestObserveIntervals(t *testing.T) {
	const every = 50_000
	s, err := New("PI", WithSeed(5), WithPBS(true))
	if err != nil {
		t.Fatal(err)
	}
	var samples []Snapshot
	if err := s.Observe(every, func(snap Snapshot) {
		samples = append(samples, snap)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("observer never fired")
	}
	var sumInstr, sumCycles, sumSteered uint64
	for i, snap := range samples {
		want := uint64(i+1) * every
		if snap.Total.Emu.Instructions != want {
			t.Errorf("sample %d at %d instructions, want %d", i, snap.Total.Emu.Instructions, want)
		}
		if snap.Delta.Timing.Instructions != every {
			t.Errorf("sample %d delta %d instructions, want %d", i, snap.Delta.Timing.Instructions, every)
		}
		sumInstr += snap.Delta.Timing.Instructions
		sumCycles += snap.Delta.Timing.Cycles
		sumSteered += snap.Delta.PBSStats.Steered
		if snap.Delta.Timing.IPC() <= 0 {
			t.Errorf("sample %d: interval IPC not positive", i)
		}
	}
	last := samples[len(samples)-1]
	if sumInstr != last.Total.Timing.Instructions || sumCycles != last.Total.Timing.Cycles || sumSteered != last.Total.PBSStats.Steered {
		t.Error("deltas do not sum to totals")
	}

	final := s.Snapshot()
	if final.Emu.Instructions <= last.Total.Emu.Instructions {
		t.Error("final snapshot did not advance past the last interval")
	}
	// A snapshot carries exactly the component structs Result does.
	res := s.Result()
	if final.Timing != res.Timing || final.Emu != res.Emu || final.PBSStats != res.PBSStats {
		t.Error("snapshot metrics disagree with the result's component stats")
	}
}

// TestObserveTwoPhases: two observers keep independent phase and delta
// state.
func TestObserveTwoPhases(t *testing.T) {
	s, err := New("PI", WithSeed(5), WithMaxInstrs(100_000))
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	if err := s.Observe(30_000, func(Snapshot) { a++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(45_000, func(snap Snapshot) {
		b++
		if snap.Total.Emu.Instructions%45_000 != 0 {
			t.Errorf("observer B fired off its boundary at %d", snap.Total.Emu.Instructions)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 3 || b != 2 {
		t.Errorf("observer counts a=%d b=%d, want 3 and 2", a, b)
	}
}

func TestObserveErrors(t *testing.T) {
	s, err := New("PI")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(0, func(Snapshot) {}); err == nil {
		t.Error("zero interval accepted")
	}
	if err := s.Observe(10, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

// TestProgramOnlySession: a raw program runs without any registered
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
		t.Fatalf("Run with Program and unregistered label: %v", err)
	}
	if named.Workload != "my-custom-kernel" {
		t.Errorf("label %q not preserved", named.Workload)
	}
	if named.Timing != res.Timing {
		t.Error("label changed the simulation")
	}
}

// TestSessionErrors: construction and registry failures surface cleanly.
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
// program build, advanced concurrently with observers attached — the
// contract the race-detector CI job guards.
func TestConcurrentSessionsShareProgram(t *testing.T) {
	prog, err := BuildProgram("PI", workloads.Params{}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(Config{Workload: "PI", Seed: 1, PBS: true, MaxInstrs: 120_000, Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New("PI", WithProgram(prog), WithSeed(1), WithPBS(true), WithMaxInstrs(120_000))
			if err != nil {
				t.Error(err)
				return
			}
			fired := 0
			if err := s.Observe(40_000, func(Snapshot) { fired++ }); err != nil {
				t.Error(err)
				return
			}
			for {
				done, err := s.RunFor(25_000)
				if err != nil {
					t.Error(err)
					return
				}
				if done {
					break
				}
			}
			if fired != 3 {
				t.Errorf("observer fired %d times, want 3", fired)
			}
			if s.Result().Timing != ref.Timing {
				t.Error("concurrent session diverged from reference")
			}
		}()
	}
	wg.Wait()
}

// TestNestedAdvance: an Observe callback may itself step the session (a
// nested RunFor); the outer advance resumes from wherever the callback
// left the machine. Every snapshot — the observer's, the one taken
// inside the callback, and the final totals — must equal those of a
// session stepped to the same counts without nesting.
func TestNestedAdvance(t *testing.T) {
	opts := []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(150_000)}
	newObserved := func(obs *[]Snapshot, fn func(*Session)) *Session {
		s, err := New("PI", opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(30_000, func(snap Snapshot) {
			*obs = append(*obs, snap)
			if fn != nil {
				fn(s)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	var nestedObs []Snapshot
	var nestedRecs []Metrics
	nested := false
	s := newObserved(&nestedObs, func(s *Session) {
		if nested {
			return
		}
		nested = true
		if _, err := s.RunFor(5_000); err != nil {
			t.Error(err)
			return
		}
		nestedRecs = append(nestedRecs, s.Snapshot())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	nestedRecs = append(nestedRecs, s.Snapshot())

	// Reference: the same counts (35k inside the first interval, then
	// to completion) reached by plain top-level stepping.
	var refObs []Snapshot
	var refRecs []Metrics
	ref := newObserved(&refObs, nil)
	if _, err := ref.RunFor(35_000); err != nil {
		t.Fatal(err)
	}
	refRecs = append(refRecs, ref.Snapshot())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	refRecs = append(refRecs, ref.Snapshot())

	if len(nestedObs) != 5 || len(nestedObs) != len(refObs) {
		t.Fatalf("observer fired %d times nested, %d plain; want 5", len(nestedObs), len(refObs))
	}
	for i := range refObs {
		if nestedObs[i] != refObs[i] {
			t.Errorf("observer sample %d diverged:\nnested %+v\n plain %+v", i, nestedObs[i], refObs[i])
		}
	}
	if len(nestedRecs) != len(refRecs) {
		t.Fatalf("nested run recorded %d snapshots, plain %d", len(nestedRecs), len(refRecs))
	}
	for i := range refRecs {
		if nestedRecs[i] != refRecs[i] {
			t.Errorf("snapshot %d diverged:\nnested %+v\n plain %+v", i, nestedRecs[i], refRecs[i])
		}
	}
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
