package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/sample"
)

// restoreK is where the restore-identity tests interrupt the run:
// deep enough that predictor tables, caches, the PBS unit and the FU
// scheduler carry real state, well before any golden config completes.
const restoreK = 50_000

// runInterrupted executes cfg for k instructions, checkpoints, round-
// trips the checkpoint through its serialized bytes (exactly what a
// separate process would see), resumes a fresh session, and runs it to
// completion.
func runInterrupted(t *testing.T, cfg Config, k uint64) *Result {
	t.Helper()
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(k); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Decode from a copy of the raw bytes so nothing can lean on the
	// originating session's in-memory state.
	loaded, err := LoadCheckpoint(append([]byte(nil), ck.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Instructions() != s.Instructions() {
		t.Fatalf("loaded checkpoint reports %d instructions, session retired %d", loaded.Instructions(), s.Instructions())
	}
	restored, err := Resume(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	return restored.Result()
}

func compareResults(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Timing != want.Timing {
		t.Errorf("timing metrics diverged:\n got %+v\nwant %+v", got.Timing, want.Timing)
	}
	if got.Emu != want.Emu {
		t.Errorf("emu stats diverged:\n got %+v\nwant %+v", got.Emu, want.Emu)
	}
	if got.PBSStats != want.PBSStats {
		t.Errorf("pbs stats diverged:\n got %+v\nwant %+v", got.PBSStats, want.PBSStats)
	}
	if hashU64(got.Outputs) != hashU64(want.Outputs) || len(got.Outputs) != len(want.Outputs) {
		t.Errorf("outputs diverged: %d values, want %d", len(got.Outputs), len(want.Outputs))
	}
	if hashF64(got.Generated) != hashF64(want.Generated) {
		t.Errorf("generated stream diverged")
	}
	if hashF64(got.Consumed) != hashF64(want.Consumed) {
		t.Errorf("consumed stream diverged")
	}
}

// TestCheckpointRestoreGolden: for every golden configuration,
// interrupting a run with checkpoint→serialize→restore must not move a
// single counter relative to the uninterrupted run.
func TestCheckpointRestoreGolden(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runInterrupted(t, cfg, restoreK)
			compareResults(t, got, want)
		})
	}
}

// TestCheckpointEveryPredictor: every predictor in the branch table
// checkpoints, and a run interrupted by checkpoint→serialize→restore
// matches the uninterrupted one.
func TestCheckpointEveryPredictor(t *testing.T) {
	for _, name := range branch.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Workload: "Bandit", Seed: 3, Predictor: PredictorKind(name), MaxInstrs: 2 * restoreK}
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, runInterrupted(t, cfg, restoreK), want)
		})
	}
}

// TestCheckpointAtVariousPoints slides the checkpoint boundary across
// awkward offsets — including ones that land between a PROB_CMP and its
// terminal PROB_JMP — and demands identity at each.
func TestCheckpointAtVariousPoints(t *testing.T) {
	cfg := Config{Workload: "PI", Seed: 1, PBS: true, MaxInstrs: 120_000}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 3, 7_777, 50_001, 119_999} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			got := runInterrupted(t, cfg, k)
			compareResults(t, got, want)
		})
	}
}

// TestCheckpointByteStable: checkpoint → resume → checkpoint again must
// reproduce the container byte for byte — machine state, not incidental
// in-memory layout (map order, pool contents), is what gets encoded —
// for a solo session and for a four-member Figure 7/8 group, whose two
// shared stages are written once each.
func TestCheckpointByteStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(t *testing.T) *Session
	}{
		{"solo", func(t *testing.T) *Session {
			s, err := newSession(Config{Workload: "PI", Seed: 1, PBS: true})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"group", func(t *testing.T) *Session {
			return figure78Group(t, "Bandit", []Option{WithSeed(11), WithPBS(true)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.new(t)
			if _, err := s.RunFor(restoreK); err != nil {
				t.Fatal(err)
			}
			ck1, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Resume(ck1)
			if err != nil {
				t.Fatal(err)
			}
			ck2, err := restored.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ck1.Bytes(), ck2.Bytes()) {
				t.Fatalf("re-checkpoint differs: %d vs %d bytes", len(ck1.Bytes()), len(ck2.Bytes()))
			}
		})
	}
}

// TestFastForwardThenTiming models the warm-prefix path: a timed
// session fast-forwarded over a prefix, then run to the end. Functional
// results must equal the uninterrupted run, and the timing model must
// cover exactly the post-prefix suffix. The sampled case's prefix ends
// inside a measurement window (period 100003, window 10007, warmup
// 20011: a window covers 100003..110010): the schedule counts no
// prefix instruction, so its phase counters add up to the suffix.
func TestFastForwardThenTiming(t *testing.T) {
	sc := sample.Config{Period: 100_003, Window: 10_007, Warmup: 20_011}
	for _, tc := range []struct {
		name   string
		cfg    Config
		prefix uint64
	}{
		{"full", Config{Workload: "Genetic", Seed: 13, PBS: true, MaxInstrs: 300_000}, restoreK},
		{"sampled", Config{Workload: "PI", Seed: 3, PBS: true, MaxInstrs: 600_000, Sample: &sc}, 105_003},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := newSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			functional := tc.cfg
			functional.SkipTiming = true
			functional.Sample = nil
			want, err := Run(functional)
			if err != nil {
				t.Fatal(err)
			}
			if done, err := s.FastForward(tc.prefix); err != nil || done {
				t.Fatalf("FastForward: done=%v err=%v", done, err)
			}
			if got := s.Instructions(); got != tc.prefix {
				t.Fatalf("fast-forwarded to %d instructions, want %d", got, tc.prefix)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			got := s.Result()
			if got.Emu != want.Emu {
				t.Errorf("functional stats diverged:\n got %+v\nwant %+v", got.Emu, want.Emu)
			}
			if got.PBSStats != want.PBSStats {
				t.Errorf("pbs stats diverged:\n got %+v\nwant %+v", got.PBSStats, want.PBSStats)
			}
			if hashU64(got.Outputs) != hashU64(want.Outputs) {
				t.Errorf("outputs diverged")
			}
			suffix := want.Emu.Instructions - tc.prefix
			if got.Timing.Cycles == 0 {
				t.Error("timing model produced no cycles after the fast-forward")
			}
			if got.Sampled == nil {
				if got.Timing.Instructions != suffix {
					t.Errorf("timing model saw %d instructions, want the %d-instruction suffix", got.Timing.Instructions, suffix)
				}
				return
			}
			e := got.Sampled
			if sum := e.InstrsMeasured + e.InstrsWarmed + e.InstrsFastForwarded; sum != suffix {
				t.Errorf("schedule accounted %d instructions (measured %d, warmed %d, fast-forwarded %d), want the %d-instruction suffix",
					sum, e.InstrsMeasured, e.InstrsWarmed, e.InstrsFastForwarded, suffix)
			}
			if timed := e.InstrsMeasured + e.InstrsWarmed; got.Timing.Instructions != timed {
				t.Errorf("timing model saw %d instructions, want the suffix's %d detailed ones", got.Timing.Instructions, timed)
			}
			if e.Windows == 0 {
				t.Error("sampled suffix measured no window")
			}
		})
	}
}

// TestFastForwardRejects: FastForward is refused once the session has
// run timed or was resumed; and Resume refuses a member whose timing
// mode does not match the checkpoint's sections.
func TestFastForwardRejects(t *testing.T) {
	newPI := func(t *testing.T, opts ...Option) *Session {
		t.Helper()
		s, err := New("PI", append([]Option{WithSeed(1), WithPBS(true)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ran := newPI(t)
	if _, err := ran.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := ran.FastForward(1000); err == nil {
		t.Error("FastForward after RunFor succeeded")
	}

	ck, err := ran.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.FastForward(1000); err == nil {
		t.Error("FastForward after Resume succeeded")
	}

	functional := newPI(t, WithoutTiming())
	if _, err := functional.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	fck, err := functional.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	timingOn := func(c *Config) { c.SkipTiming = false }
	if _, err := Resume(fck, timingOn); err == nil || !strings.Contains(err.Error(), "member 0") {
		t.Errorf("a timed member resumed without its sections: err = %v, want one naming member 0", err)
	}
	if _, err := Resume(ck, WithoutTiming()); err == nil || !strings.Contains(err.Error(), "member 0") {
		t.Errorf("a functional-only member resumed over timing sections: err = %v, want one naming member 0", err)
	}
}

// TestResumeValidation: every way a resume can be inconsistent with its
// checkpoint must produce a clear error, and damaged containers must be
// rejected at load time.
func TestResumeValidation(t *testing.T) {
	cfg := Config{Workload: "PI", Seed: 1, PBS: true}
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Resume(ck, WithPredictor(PredTournament)); err == nil || !strings.Contains(err.Error(), "predictor") {
		t.Errorf("predictor mismatch not rejected: %v", err)
	}
	if _, err := Resume(ck, WithPBS(false)); err == nil || !strings.Contains(err.Error(), "PBS") {
		t.Errorf("PBS mismatch not rejected: %v", err)
	}
	if _, err := Resume(ck, WithScale(2)); err == nil || !strings.Contains(err.Error(), "program") {
		t.Errorf("program mismatch not rejected: %v", err)
	}

	data := ck.Bytes()
	if _, err := LoadCheckpoint(data[:len(data)/2]); err == nil {
		t.Error("truncated checkpoint loaded without error")
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	if _, err := LoadCheckpoint(mut); err == nil {
		t.Error("corrupted checkpoint loaded without error")
	}
	if _, err := LoadCheckpoint(nil); err == nil {
		t.Error("empty checkpoint loaded without error")
	}
}

// TestCheckpointOfFaultedSession: a dead session must refuse to
// checkpoint rather than serialize a half-updated machine.
func TestCheckpointOfFaultedSession(t *testing.T) {
	s, err := newSession(Config{Workload: "PI", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.err = errTestFault
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("faulted session produced a checkpoint")
	}
}

var errTestFault = errFault{}

type errFault struct{}

func (errFault) Error() string { return "synthetic fault" }

// BenchmarkCheckpointRoundtrip measures the save + load + restore cost
// of a warmed-up full-machine checkpoint, and reports its encoded size.
func BenchmarkCheckpointRoundtrip(b *testing.B) {
	s, err := New("PI", WithSeed(1), WithPBS(true))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.RunFor(200_000); err != nil {
		b.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	size := len(ck.Bytes())
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := s.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := LoadCheckpoint(ck.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		r, err := Resume(loaded)
		if err != nil {
			b.Fatal(err)
		}
		// Every product path closes its sessions, so the next resume
		// takes its machine from the pools Close fills.
		r.Close()
	}
	// After the loop: ResetTimer drops metrics reported before it.
	b.ReportMetric(float64(size), "ckpt-bytes")
}
