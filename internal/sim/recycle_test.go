package sim

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
)

// emptyPools drops the machine storage closed sessions released: a
// sync.Pool keeps an object through at most two garbage collections.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// recycled is what one session of TestRecycledSessionsMatchFresh
// produced: every member's result as JSON, and the checkpoint bytes at
// the cut and at the end.
type recycled struct {
	results  [][]byte
	mid, end []byte
}

// TestRecycledSessionsMatchFresh runs a sequence of sessions in one
// process with Close between them, so each builds its machine on the
// storage of the ones before: a DOP 4- and 8-wide group (whose FU rings
// grow to 512 cycles), a PI solo (a smaller program and memory image), a
// Bandit {tage-sc-l, tournament} × {4, 8}-wide group, a sampled
// session on the tournament predictor and a Resume of its mid-run
// checkpoint. Each must produce the results and checkpoint bytes of the
// same session built with empty pools.
func TestRecycledSessionsMatchFresh(t *testing.T) {
	sampled := sample.Config{Window: 10_007, Period: 50_021, Warmup: 20_011}
	steps := []struct {
		name  string
		cut   uint64
		build func(t *testing.T, mid *Checkpoint) *Session
	}{
		{"DOP-4+8-wide", 77_777, func(t *testing.T, _ *Checkpoint) *Session {
			return groupOf(t, "DOP", []Option{WithSeed(3), WithMaxInstrs(200_000)},
				[][]Option{{WithCore(pipeline.FourWide())}, {WithCore(pipeline.EightWide())}})
		}},
		{"PI-solo", 33_333, func(t *testing.T, _ *Checkpoint) *Session {
			return mustNew(t, "PI", WithSeed(4), WithPBS(true), WithMaxInstrs(100_000))
		}},
		{"Bandit-figure-7/8", 54_321, func(t *testing.T, _ *Checkpoint) *Session {
			return figure78Group(t, "Bandit", []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(120_000)})
		}},
		{"Swaptions-sampled", 123_457, func(t *testing.T, _ *Checkpoint) *Session {
			return mustNew(t, "Swaptions", WithSeed(5), WithPredictor(PredTournament), WithMaxInstrs(300_000), WithSampledTiming(sampled))
		}},
		{"Swaptions-resumed", 50_000, func(t *testing.T, mid *Checkpoint) *Session {
			s, err := Resume(mid)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	// run runs the steps in order; each resumes from the previous step's
	// mid-run checkpoint if it resumes at all. With fresh set, every step
	// starts from empty pools and is not closed; otherwise each is closed
	// after its step.
	run := func(fresh bool) []recycled {
		emptyPools()
		var out []recycled
		var mid *Checkpoint
		for _, st := range steps {
			if fresh {
				emptyPools()
			}
			s := st.build(t, mid)
			if _, err := s.RunFor(st.cut); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			var err error
			if mid, err = s.Checkpoint(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			end, err := s.Checkpoint()
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			r := recycled{mid: mid.Bytes(), end: end.Bytes()}
			for _, res := range results(t, s) {
				r.results = append(r.results, mustJSON(t, res))
			}
			out = append(out, r)
			if !fresh {
				s.Close()
			}
		}
		return out
	}
	want := run(true)
	got := run(false)
	for i, st := range steps {
		for k := range want[i].results {
			if !bytes.Equal(got[i].results[k], want[i].results[k]) {
				t.Errorf("%s: member %d's result differs on a recycled machine:\n got %s\nwant %s",
					st.name, k, got[i].results[k], want[i].results[k])
			}
		}
		if !bytes.Equal(got[i].mid, want[i].mid) || !bytes.Equal(got[i].end, want[i].end) {
			t.Errorf("%s: checkpoint bytes differ on a recycled machine", st.name)
		}
	}
}

// TestClosedSessionRefuses: every call on a closed session that returns
// an error returns one, Done reports true, and a second Close does
// nothing.
func TestClosedSessionRefuses(t *testing.T) {
	s := mustNew(t, "PI", WithMaxInstrs(20_000))
	if _, err := s.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, err := s.RunFor(1_000); err == nil {
		t.Error("RunFor on a closed session succeeded")
	}
	if err := s.Run(); err == nil {
		t.Error("Run on a closed session succeeded")
	}
	if _, err := s.FastForward(1_000); err == nil {
		t.Error("FastForward on a closed session succeeded")
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint of a closed session succeeded")
	}
	if err := s.AddMember(WithPredictor(PredTournament)); err == nil {
		t.Error("AddMember to a closed session succeeded")
	}
	if _, err := s.Results(); err == nil {
		t.Error("Results of a closed session succeeded")
	}
	if !s.Done() || s.Err() == nil {
		t.Errorf("a closed session reports Done %v, Err %v", s.Done(), s.Err())
	}
}

func mustNew(t *testing.T, workload string, opts ...Option) *Session {
	t.Helper()
	s, err := New(workload, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
