package sim

import (
	"math"
	"reflect"
	"testing"

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

// TestSampledAccuracy is the SMARTS error-model validation: for every
// golden configuration and both schedules, the full-timing IPC must lie
// inside the sampled run's 95% confidence interval, and the MPKI
// estimate must agree within its interval plus a small absolute slack
// (near-zero-MPKI configs measure windows with zero misses, collapsing
// the interval).
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("13 configs x (1 full + 2 sampled) runs")
	}
	for name, cfg := range goldenConfigs() {
		cfg.SkipTiming = false
		full, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: full run: %v", name, err)
		}
		fullIPC := full.Timing.IPC()
		fullMPKI := full.Timing.MPKI()
		for i, sc := range accuracySchedules {
			c := cfg
			c.Sample = &sc
			res, err := Run(c)
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
// workload-dependent); the aggregate may not.
func TestSampledCIShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("26 sampled runs")
	}
	coarse := sample.Config{Window: 6007, Period: 125003, Warmup: 75017, FuncWarm: true}
	fine := sample.Config{Window: 25013, Period: 125003, Warmup: 75017, FuncWarm: true}
	var relCoarse, relFine float64
	for name, cfg := range goldenConfigs() {
		cfg.SkipTiming = false
		for _, sc := range []*sample.Config{&coarse, &fine} {
			c := cfg
			c.Sample = sc
			res, err := Run(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e := res.Sampled
			if e.IPC.Mean == 0 {
				t.Fatalf("%s: zero IPC estimate", name)
			}
			rel := e.IPCHalfWidth() / e.IPC.Mean
			if sc == &coarse {
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
// (inside a fast-forward gap, where the sampler's trace-pause state
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
