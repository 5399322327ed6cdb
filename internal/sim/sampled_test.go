package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// accuracySchedules are the two (W, P, warmup) settings the accuracy
// matrix validates. Prime-valued lengths keep the systematic schedule
// from locking onto workload loop periods; functional warming keeps
// cache tags and predictor state live across the fast-forward gaps so
// windows late in a run see the state a full run would have built.
var accuracySchedules = []sample.Config{
	{Window: 25013, Period: 125003, Warmup: 75017, FuncWarm: true},
	{Window: 49999, Period: 150001, Warmup: 75017, FuncWarm: true},
}

// goldenTimings returns each golden entry's full-timing counters, keyed
// by entry name. TestRunMatchesGolden pins them byte-identical to
// sim.Run, so a test that needs a golden configuration's full-timing
// rates reads them here instead of rerunning it.
func goldenTimings(t *testing.T) map[string]pipeline.Metrics {
	t.Helper()
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]pipeline.Metrics, len(entries))
	for _, e := range entries {
		out[e.Name] = e.Timing
	}
	return out
}

// accuracyRuns caches the golden configurations' sampled runs under
// accuracySchedules[0], which TestSampledAccuracy and
// TestSampledCIShrinks both need. It fills on first use, so either test
// still runs alone.
var accuracyRuns struct {
	sync.Mutex
	res map[string]*Result
}

// sampledGoldenRun returns golden configuration name, timed, under
// schedule sc: cached for accuracySchedules[0], run afresh otherwise.
func sampledGoldenRun(name string, cfg Config, sc sample.Config) (*Result, error) {
	cfg.SkipTiming = false
	cfg.Sample = &sc
	if sc != accuracySchedules[0] {
		return Run(cfg)
	}
	accuracyRuns.Lock()
	defer accuracyRuns.Unlock()
	if res, ok := accuracyRuns.res[name]; ok {
		return res, nil
	}
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if accuracyRuns.res == nil {
		accuracyRuns.res = make(map[string]*Result)
	}
	accuracyRuns.res[name] = res
	return res, nil
}

// TestSampledAccuracy is the SMARTS error-model validation: for every
// golden configuration and both schedules, the full-timing IPC must lie
// inside the sampled run's 95% confidence interval, and the MPKI
// estimate must agree within its interval plus a small absolute slack
// (near-zero-MPKI configs measure windows with zero misses, collapsing
// the interval). The full-timing rates come from the golden data; only
// the skip-timing configuration, whose golden entry has no timing, is
// run in full.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("13 configs x 2 sampled runs")
	}
	golden := goldenTimings(t)
	for name, cfg := range goldenConfigs() {
		full := golden[name]
		if cfg.SkipTiming {
			c := cfg
			c.SkipTiming = false
			res, err := Run(c)
			if err != nil {
				t.Fatalf("%s: full run: %v", name, err)
			}
			full = res.Timing
		}
		fullIPC := full.IPC()
		fullMPKI := full.MPKI()
		for i, sc := range accuracySchedules {
			res, err := sampledGoldenRun(name, cfg, sc)
			if err != nil {
				t.Fatalf("%s S%d: sampled run: %v", name, i, err)
			}
			e := res.Sampled
			if e == nil {
				t.Fatalf("%s S%d: sampled run has no estimate", name, i)
			}
			if e.Windows < 2 {
				t.Errorf("%s S%d: only %d windows, no interval", name, i, e.Windows)
			}
			if !e.IPC.CI.Contains(fullIPC) {
				t.Errorf("%s S%d: full IPC %.4f outside sampled CI [%.4f, %.4f] (est %.4f, %d windows)",
					name, i, fullIPC, e.IPC.CI.Lo, e.IPC.CI.Hi, e.IPC.Mean, e.Windows)
			}
			if d := math.Abs(e.MPKI.Mean - fullMPKI); d > e.MPKIHalfWidth()+0.05 {
				t.Errorf("%s S%d: MPKI est %.3f vs full %.3f, off by %.3f > hw %.3f + 0.05",
					name, i, e.MPKI.Mean, fullMPKI, d, e.MPKIHalfWidth())
			}
			if got := res.EffectiveIPC(); got != e.IPC.Mean {
				t.Errorf("%s S%d: EffectiveIPC %v != sampled mean %v", name, i, got, e.IPC.Mean)
			}
			if sum := e.InstrsMeasured + e.InstrsWarmed + e.InstrsFastForwarded; sum != res.Emu.Instructions {
				t.Errorf("%s S%d: phase accounting %d != %d retired", name, i, sum, res.Emu.Instructions)
			}
		}
	}
}

// TestSampledCIShrinks checks the error model's scaling: quadrupling
// the measured-instruction mass W*n (same period, larger windows) must
// tighten the aggregate relative confidence interval across the golden
// matrix. Individual configs can go either way (window variance is
// workload-dependent); the aggregate may not. The fine schedule is
// accuracySchedules[0], so its runs are TestSampledAccuracy's.
func TestSampledCIShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("26 sampled runs")
	}
	coarse := sample.Config{Window: 6007, Period: 125003, Warmup: 75017, FuncWarm: true}
	fine := accuracySchedules[0]
	var relCoarse, relFine float64
	for name, cfg := range goldenConfigs() {
		for _, sc := range []sample.Config{coarse, fine} {
			res, err := sampledGoldenRun(name, cfg, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e := res.Sampled
			if e.IPC.Mean == 0 {
				t.Fatalf("%s: zero IPC estimate", name)
			}
			rel := e.IPCHalfWidth() / e.IPC.Mean
			if sc == coarse {
				relCoarse += rel
			} else {
				relFine += rel
			}
		}
	}
	if relFine >= relCoarse {
		t.Errorf("aggregate relative half-width did not shrink: W=%d gives %.5f, W=%d gives %.5f",
			fine.Window, relFine, coarse.Window, relCoarse)
	}
}

// TestSampledDeterminism: the schedule is a pure function of the
// retired-instruction count, so the estimate and every timing counter
// must be bit-identical across RunFor chunkings.
func TestSampledDeterminism(t *testing.T) {
	sc := sample.Config{Window: 10007, Period: 50021, Warmup: 20011, FuncWarm: true}
	base := Config{Workload: "MC-integ", Seed: 23, Sample: &sc}

	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	// Chunked driving: RunFor in awkward steps crosses schedule
	// boundaries mid-call and must land on the same windows.
	s, err := newSession(base)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.RunFor(9973); err != nil {
			t.Fatal(err)
		}
	}
	chunked := s.Result()
	if !reflect.DeepEqual(chunked.Sampled, ref.Sampled) {
		t.Errorf("chunked RunFor: estimate diverges: %+v vs %+v", chunked.Sampled, ref.Sampled)
	}
	if chunked.Timing != ref.Timing {
		t.Errorf("chunked RunFor: timing counters diverge")
	}
}

// TestSampledCheckpointResume: a sampled session checkpointed mid-run
// (inside a fast-forward gap, where the sampler's choice of trace sink
// must be re-derived) and resumed must finish with exactly the
// uninterrupted run's estimate.
func TestSampledCheckpointResume(t *testing.T) {
	sc := sample.Config{Window: 10007, Period: 50021, Warmup: 20011, FuncWarm: true}
	cfg := Config{Workload: "PI", Seed: 1, Sample: &sc}

	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 40000 is inside the first period's fast-forward gap; 55000 lands
	// in an open measurement window of the second period.
	for _, stop := range []uint64{40000, 55000} {
		for s.Instructions() < stop && !s.Done() {
			if _, err := s.RunFor(stop - s.Instructions()); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", stop, err)
		}
		loaded, err := LoadCheckpoint(cp.Bytes())
		if err != nil {
			t.Fatalf("load checkpoint at %d: %v", stop, err)
		}
		s, err = Resume(loaded)
		if err != nil {
			t.Fatalf("resume at %d: %v", stop, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := s.Result()
	if !reflect.DeepEqual(got.Sampled, ref.Sampled) {
		t.Errorf("resumed estimate diverges:\n  got  %+v\n  want %+v", got.Sampled, ref.Sampled)
	}
	if got.Timing != ref.Timing {
		t.Errorf("resumed timing counters diverge from uninterrupted run")
	}
}

// TestSampledConfigErrors: invalid schedules and incompatible options
// fail at construction, not mid-run.
func TestSampledConfigErrors(t *testing.T) {
	if _, err := New("PI", WithSampledTiming(sample.Config{Window: 0, Period: 10})); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New("PI", WithSampledTiming(sample.Config{Window: 100, Period: 10})); err == nil {
		t.Error("period < window accepted")
	}
	if _, err := New("PI", WithoutTiming(), WithSampledTiming(sample.Config{Window: 100, Period: 1000})); err == nil {
		t.Error("sampled timing without a timing model accepted")
	}
}

// TestSampledSmoke is the cheap end-to-end check CI's sampled job runs:
// one config, a tight schedule, a converged interval that covers the
// full-timing IPC.
func TestSampledSmoke(t *testing.T) {
	cfg := Config{Workload: "PI", Seed: 1}
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Sample = &sample.Config{Window: 25013, Period: 125003, Warmup: 75017, FuncWarm: true}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Sampled
	if e == nil || e.Windows < 2 {
		t.Fatalf("no usable estimate: %+v", e)
	}
	if hw := e.IPCHalfWidth(); hw <= 0 || math.IsNaN(hw) || math.IsInf(hw, 0) {
		t.Fatalf("degenerate IPC half-width %v", hw)
	}
	if !e.IPC.CI.Contains(full.Timing.IPC()) {
		t.Fatalf("full IPC %.4f outside sampled CI [%.4f, %.4f]",
			full.Timing.IPC(), e.IPC.CI.Lo, e.IPC.CI.Hi)
	}
}

// countingSink counts the trace batches and instructions delivered to
// it.
type countingSink struct{ batches, instrs int }

func (c *countingSink) ConsumeTrace(batch []emu.DynInstr) {
	c.batches++
	c.instrs += len(batch)
}

// TestUntracedStretchesDeliverNoBatch: FastForward and a fast-forward
// gap without functional warming run with no trace sink, so a sink
// installed on the emulator when the stretch starts receives no batch,
// the gap leaves the predictor and caches as they were, and the timing
// model receives the trace again once the stretch ends. A
// functional-only session fast-forwards and runs on with no sink at
// all.
func TestUntracedStretchesDeliverNoBatch(t *testing.T) {
	timed := func(s *Session) uint64 { return s.members[0].pipe.Metrics().Instructions }
	stage := func(t *testing.T, s *Session) []byte {
		t.Helper()
		enc := ckpt.NewEncoder()
		if err := s.members[0].pipe.Events.CheckpointState(enc.Section("stage")); err != nil {
			t.Fatal(err)
		}
		data, err := enc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	t.Run("fast-forward", func(t *testing.T) {
		s, err := New("PI", WithSeed(1), WithPBS(true))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		cs := &countingSink{}
		s.cpu.SetTraceSink(cs)
		if _, err := s.FastForward(100_000); err != nil {
			t.Fatal(err)
		}
		if cs.batches != 0 {
			t.Errorf("FastForward delivered %d batches (%d instructions)", cs.batches, cs.instrs)
		}
		if _, err := s.RunFor(50_000); err != nil {
			t.Fatal(err)
		}
		if got := timed(s); got != 50_000 {
			t.Errorf("timing model saw %d instructions after FastForward, want 50000", got)
		}

		f, err := New("PI", WithSeed(1), WithoutTiming())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.FastForward(100_000); err != nil {
			t.Fatal(err)
		}
		if _, err := f.RunFor(50_000); err != nil {
			t.Fatal(err)
		}
		if got := f.Instructions(); got != 150_000 {
			t.Errorf("functional session retired %d instructions, want 150000", got)
		}
	})
	t.Run("sampled-gap", func(t *testing.T) {
		sc := sample.Config{Window: 10_007, Period: 50_021, Warmup: 20_011}
		s, err := New("PI", WithSeed(1), WithPBS(true), WithSampledTiming(sc))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.RunFor(sc.Window); err != nil {
			t.Fatal(err)
		}
		gap := s.Instructions()
		if sc.PhaseAt(gap) != sample.FastForward {
			t.Fatalf("position %d is not in a fast-forward gap", gap)
		}
		before, warm := timed(s), stage(t, s)
		cs := &countingSink{}
		s.cpu.SetTraceSink(cs)
		if _, err := s.RunFor(sc.NextBoundary(gap) - gap); err != nil {
			t.Fatal(err)
		}
		if cs.batches != 0 || timed(s) != before {
			t.Errorf("the gap delivered %d batches to the installed sink and %d instructions to the timing model",
				cs.batches, timed(s)-before)
		}
		if !bytes.Equal(stage(t, s), warm) {
			t.Error("the gap changed the predictor or the caches")
		}
		if sc.PhaseAt(s.Instructions()) != sample.Warming {
			t.Fatalf("position %d is not in a warming stretch", s.Instructions())
		}
		if _, err := s.RunFor(sc.Warmup); err != nil {
			t.Fatal(err)
		}
		if got := timed(s) - before; got != sc.Warmup {
			t.Errorf("timing model saw %d instructions of the %d-instruction warming after the gap", got, sc.Warmup)
		}
	})
}
