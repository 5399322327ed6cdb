package sim

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// TestIntervalRatesUseTimedCounts pins Snapshot rates to the timing
// model's own instruction count on the two kinds of run that time only
// part of the retired stream: a SMARTS-sampled session (timed windows
// and warm-ups between fast-forward gaps) and a warm prefix
// (FastForward, then a timed suffix). Every interval and cumulative IPC
// must be a real rate — positive and at most the core width — and the
// interval timed-instruction counts, closed with the trailing partial
// interval, must add up to the run's timed total.
func TestIntervalRatesUseTimedCounts(t *testing.T) {
	const every = 1_000_000
	sc := sample.Config{Period: 100_000, Window: 10_000, Warmup: 20_000}
	cases := []struct {
		name  string
		start func(t *testing.T) *Session
	}{
		{"sampled", func(t *testing.T) *Session {
			s, err := New("PI", WithSampledTiming(sc))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"warm-prefix", func(t *testing.T) *Session {
			s, err := New("PI")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.FastForward(2_500_000); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	width := float64(pipeline.FourWide().Width)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.start(t)
			snaps, err := stepSnapshots(s, every)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 4 {
				t.Fatalf("run took %d interval steps, want at least 3", len(snaps)-1)
			}
			var sum uint64
			for i := 1; i < len(snaps); i++ {
				snap, d := snaps[i], snaps[i].Timing.Delta(snaps[i-1].Timing)
				for _, r := range []struct {
					what string
					ipc  float64
				}{{"interval", d.IPC()}, {"cumulative", snap.Timing.IPC()}} {
					if r.ipc <= 0 || r.ipc > width {
						t.Errorf("sample %d at %d instructions: %s IPC %.3f outside (0, %v]",
							i, snap.Emu.Instructions, r.what, r.ipc, width)
					}
				}
				sum += d.Instructions
			}
			if want := s.Result().Timing.Instructions; sum != want {
				t.Errorf("interval timed instructions sum to %d, run timed %d", sum, want)
			}
		})
	}
}

// TestGoldenCounterInvariants pins the equalities between the emulator,
// timing-model and PBS-unit counters of a fully timed run, over the
// golden configurations. They are what let interval reports switch
// between emulator and timing counts without changing a number.
func TestGoldenCounterInvariants(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		if cfg.SkipTiming {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tm, e, p := res.Timing, res.Emu, res.PBSStats
			checks := []struct {
				what      string
				got, want uint64
			}{
				{"Timing.Instructions == Emu.Instructions", tm.Instructions, e.Instructions},
				{"Timing.Branches == Emu.Branches", tm.Branches, e.Branches},
				{"Timing.CondBranches == Emu.CondBranches", tm.CondBranches, e.CondBranches},
				{"Timing.ProbBranches == Emu.ProbBranches", tm.ProbBranches, e.ProbBranches},
				{"ProbSteered+ProbBoot+ProbRegular == ProbBranches", tm.ProbSteered + tm.ProbBoot + tm.ProbRegular, tm.ProbBranches},
				{"Mispredicts == MispredictsProb+MispredictsReg", tm.Mispredicts, tm.MispredictsProb + tm.MispredictsReg},
				{"PBSStats.Steered+Bootstrap+Regular == Resolutions", p.Steered + p.Bootstrap + p.Regular, p.Resolutions},
				{"Timing.ProbSteered == PBSStats.Steered", tm.ProbSteered, p.Steered},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s: %d != %d", c.what, c.got, c.want)
				}
			}
		})
	}
}

// fillCounters sets every field of the counter struct p points to a
// distinct non-zero value, continuing from *next. Values are spread
// over several varint widths.
func fillCounters(t *testing.T, p any, next *uint64) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		*next++
		x := *next<<(7*(*next%5)) | *next
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(x)
		case reflect.Int:
			f.SetInt(int64(x))
		default:
			t.Fatalf("%s.%s is not a counter type", v.Type(), v.Type().Field(i).Name)
		}
	}
}

// TestCounterCheckpointRoundTrip fills every field of the timing
// counter struct with a distinct value and checks each survives a
// checkpoint round trip as a sampled session's open-window baseline. A
// counter added to pipeline.Metrics is covered without touching this
// test or any codec.
func TestCounterCheckpointRoundTrip(t *testing.T) {
	sc := sample.Config{Period: 100_000, Window: 10_000, Warmup: 20_000}
	s, err := New("PI", WithPBS(true), WithSampledTiming(sc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(25_000); err != nil { // inside the first window
		t.Fatal(err)
	}
	var next uint64
	var base pipeline.Metrics
	fillCounters(t, &base, &next)
	s.members[0].sampler.winBase = base

	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(ck.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resume(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.members[0].sampler.winBase; got != base {
		t.Errorf("window baseline:\n got %+v\nwant %+v", got, base)
	}
}
