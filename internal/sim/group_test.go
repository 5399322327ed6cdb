package sim

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// groupMembers are the timing axes one stream group fans out to: the
// golden configs' predictors × core widths × predictor filtering, plus
// an oracle front end, the resolution-penalty cost model and a core
// whose ROB is as small as its width.
func groupMembers() [][]Option {
	var ms [][]Option
	for _, pred := range []PredictorKind{PredTAGESCL, PredTournament} {
		for _, core := range []pipeline.Config{pipeline.FourWide(), pipeline.EightWide()} {
			for _, filter := range []bool{false, true} {
				ms = append(ms, []Option{WithPredictor(pred), WithCore(core), WithFilterProb(filter)})
			}
		}
	}
	perfect := pipeline.FourWide()
	perfect.PerfectBranches = true
	penalty := pipeline.EightWide()
	penalty.ResolutionPenalty = true
	tight := pipeline.FourWide()
	tight.ROBSize = tight.Width
	return append(ms,
		[]Option{WithCore(perfect)},
		[]Option{WithPredictor(PredTournament), WithCore(penalty)},
		[]Option{WithCore(tight), WithFilterProb(true)},
	)
}

// TestStreamGroupEquivalence: a session whose members share one
// emulator reports, for every member, the Result JSON and value streams
// the member's solo run produces — over full and sampled timing, a
// fast-forwarded warm prefix, functional-only runs and value capture.
// So does the same group checkpointed at a seeded random cut,
// serialized, resumed and run to the end.
func TestStreamGroupEquivalence(t *testing.T) {
	streams := []struct {
		name   string
		base   []Option
		prefix uint64 // instructions fast-forwarded before the members join
	}{
		{"PI/pbs", []Option{WithSeed(1), WithPBS(true), WithMaxInstrs(100_000)}, 0},
		{"Bandit/pbs", []Option{WithSeed(5), WithPBS(true), WithMaxInstrs(100_000)}, 0},
		{"DOP/predicated", []Option{WithSeed(31), WithVariant(workloads.VariantPredicated), WithMaxInstrs(100_000)}, 0},
		{"PI/sampled-funcwarm", []Option{WithSeed(3), WithPBS(true), WithMaxInstrs(200_000),
			WithSampledTiming(sample.Config{Window: 10007, Period: 50021, Warmup: 20011, FuncWarm: true})}, 0},
		{"MC-integ/sampled", []Option{WithSeed(23), WithMaxInstrs(200_000),
			WithSampledTiming(sample.Config{Window: 10007, Period: 50021, Warmup: 20011})}, 0},
		{"Swaptions/fast-forward", []Option{WithSeed(29), WithPBS(true), WithMaxInstrs(200_000)}, 100_000},
		{"Genetic/skiptiming", []Option{WithSeed(13), WithPBS(true), WithoutTiming(), WithMaxInstrs(100_000)}, 0},
		{"Photon/capture", []Option{WithSeed(17), WithPBS(true), WithCaptureProb(true), WithMaxInstrs(100_000)}, 0},
	}
	for n, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			t.Parallel()
			workload, _, _ := strings.Cut(st.name, "/")
			start := func(opts []Option) *Session {
				t.Helper()
				s, err := New(workload, append(append([]Option(nil), st.base...), opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.FastForward(st.prefix); err != nil {
					t.Fatal(err)
				}
				return s
			}
			members := groupMembers()
			newGroup := func() *Session {
				t.Helper()
				group := start(members[0])
				for _, m := range members[1:] {
					if err := group.AddMember(append(append([]Option(nil), st.base...), m...)...); err != nil {
						t.Fatal(err)
					}
				}
				return group
			}
			group := newGroup()
			if err := group.Run(); err != nil {
				t.Fatal(err)
			}
			got := results(t, group)
			if len(got) != len(members) {
				t.Fatalf("%d results for %d members", len(got), len(members))
			}
			if a, b := mustJSON(t, group.Result()), mustJSON(t, got[0]); !bytes.Equal(a, b) {
				t.Errorf("Result is not the first member's result")
			}

			// The checkpointed group: cut somewhere inside the run, whose
			// shortest budget here is 100k instructions.
			cut := 1 + rand.New(rand.NewPCG(2018, uint64(n))).Uint64N(99_999)
			cutGroup := newGroup()
			if _, err := cutGroup.RunFor(cut); err != nil {
				t.Fatal(err)
			}
			ck, err := cutGroup.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(ck.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Resume(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			gotResumed := results(t, resumed)
			if len(gotResumed) != len(members) {
				t.Fatalf("%d resumed results for %d members", len(gotResumed), len(members))
			}

			for i, m := range members {
				solo := start(m)
				if err := solo.Run(); err != nil {
					t.Fatal(err)
				}
				want := solo.Result()
				if a, b := mustJSON(t, got[i]), mustJSON(t, want); !bytes.Equal(a, b) {
					t.Errorf("member %d: result JSON differs from its solo run:\n got %s\nwant %s", i, a, b)
				}
				compareResults(t, got[i], want)
				if a, b := mustJSON(t, gotResumed[i]), mustJSON(t, want); !bytes.Equal(a, b) {
					t.Errorf("member %d: result JSON after a resume at %d differs from its solo run:\n got %s\nwant %s", i, cut, a, b)
				}
				compareResults(t, gotResumed[i], want)
			}
		})
	}
}

// results returns every member's result of session s.
func results(t *testing.T, s *Session) []*Result {
	t.Helper()
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamGroupRejects: a member that would retire a different
// instruction stream cannot join, nor can one join too late.
func TestStreamGroupRejects(t *testing.T) {
	base := []Option{WithSeed(7), WithPBS(true), WithMaxInstrs(50_000)}
	newGroup := func(t *testing.T) *Session {
		t.Helper()
		s, err := New("PI", base...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		opt  Option
		want string
	}{
		{"seed", WithSeed(8), "seed"},
		{"pbs", WithPBS(false), "PBS"},
		{"max-instrs", WithMaxInstrs(60_000), "budget"},
		{"workload", func(c *Config) { c.Workload = "DOP" }, "program"},
		{"timing", WithoutTiming(), "timing"},
		{"sampling", WithSampledTiming(sample.Config{Window: 1000, Period: 10000}), "sampling"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newGroup(t)
			err := s.AddMember(append(append([]Option(nil), base...), tc.opt)...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AddMember with a different %s: err = %v, want one naming %q", tc.name, err, tc.want)
			}
		})
	}

	s := newGroup(t)
	if err := s.AddMember(append(base, WithPredictor(PredTournament))...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFor(1000); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMember(base...); err == nil {
		t.Error("a member joined a session that had advanced")
	}

	timed := newGroup(t)
	if _, err := timed.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	ck, err := timed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.AddMember(WithPredictor(PredTournament)); err == nil {
		t.Error("a member joined a session resumed with timing state")
	}
}
