package sim

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// Field classes for TestEventKeyFields.
const (
	streamShaping = "stream-shaping" // AddMember refuses a member that differs
	eventShaping  = "event-shaping"  // members that differ get separate miss-event stages
	scheduleOnly  = "schedule-only"  // members that differ share one stage
)

// keyField is a configuration field's class and an option that
// changes it, and nothing else, from the test's base configuration.
type keyField struct {
	class string
	vary  Option
}

// withCore changes one field of the default core.
func withCore(change func(*pipeline.Config)) Option {
	c := pipeline.FourWide()
	change(&c)
	return WithCore(c)
}

// TestEventKeyFields classifies every field of sim.Config and
// pipeline.Config by what it shapes, and fails when a field is left
// unclassified. A member that differs from the session in a
// stream-shaping field cannot join it. Two members that differ only in
// an event-shaping field get separate miss-event stages; two that
// differ only in a schedule-only field share one. Either way each
// member's result is its solo run's.
func TestEventKeyFields(t *testing.T) {
	otherProg, err := BuildProgram("PI", workloads.Params{Scale: 2}, workloads.VariantPlain)
	if err != nil {
		t.Fatal(err)
	}
	simFields := map[string]keyField{
		"Workload":    {streamShaping, func(c *Config) { c.Workload = "DOP" }},
		"Params":      {streamShaping, WithScale(2)},
		"Seed":        {streamShaping, WithSeed(8)},
		"Predictor":   {eventShaping, WithPredictor(PredTournament)},
		"PBS":         {streamShaping, WithPBS(false)},
		"Core":        {eventShaping, withCore(func(c *pipeline.Config) { c.L2.SizeBytes /= 2 })},
		"FilterProb":  {eventShaping, WithFilterProb(true)},
		"CaptureProb": {streamShaping, WithCaptureProb(true)},
		"MaxInstrs":   {streamShaping, WithMaxInstrs(40_000)},
		"Variant":     {streamShaping, WithVariant(workloads.VariantPredicated)},
		"Program":     {streamShaping, WithProgram(otherProg)},
		"SkipTiming":  {streamShaping, WithoutTiming()},
		// Deprecated and ignored: it shapes nothing.
		"SyncTiming": {scheduleOnly, func(c *Config) { c.SyncTiming = true }},
		"Sample":     {streamShaping, WithSampledTiming(sample.Config{Window: 1000, Period: 10000})},
	}
	coreFields := map[string]keyField{
		"Width":             {scheduleOnly, withCore(func(c *pipeline.Config) { c.Width = 2 })},
		"ROBSize":           {scheduleOnly, withCore(func(c *pipeline.Config) { c.ROBSize = 32 })},
		"FrontendDepth":     {scheduleOnly, withCore(func(c *pipeline.Config) { c.FrontendDepth = 3 })},
		"MispredictPenalty": {scheduleOnly, withCore(func(c *pipeline.Config) { c.MispredictPenalty = 20 })},
		"IntALUs":           {scheduleOnly, withCore(func(c *pipeline.Config) { c.IntALUs = 1 })},
		"FPUs":              {scheduleOnly, withCore(func(c *pipeline.Config) { c.FPUs = 1 })},
		"MemPorts":          {scheduleOnly, withCore(func(c *pipeline.Config) { c.MemPorts = 1 })},
		"BranchUnits":       {scheduleOnly, withCore(func(c *pipeline.Config) { c.BranchUnits = 2 })},
		"L1I":               {eventShaping, withCore(func(c *pipeline.Config) { c.L1I.SizeBytes /= 4 })},
		"L1D":               {eventShaping, withCore(func(c *pipeline.Config) { c.L1D.Ways /= 2 })},
		"L2":                {eventShaping, withCore(func(c *pipeline.Config) { c.L2.HitLatency = 20 })},
		"MemLatency":        {eventShaping, withCore(func(c *pipeline.Config) { c.MemLatency = 200 })},
		// A session sets the core's FilterProb from Config.FilterProb.
		"FilterProb":        {eventShaping, WithFilterProb(true)},
		"PerfectBranches":   {eventShaping, withCore(func(c *pipeline.Config) { c.PerfectBranches = true })},
		"ResolutionPenalty": {scheduleOnly, withCore(func(c *pipeline.Config) { c.ResolutionPenalty = true })},
	}
	for _, tc := range []struct {
		typ    reflect.Type
		fields map[string]keyField
	}{{reflect.TypeOf(Config{}), simFields}, {reflect.TypeOf(pipeline.Config{}), coreFields}} {
		var names []string
		for i := range tc.typ.NumField() {
			name := tc.typ.Field(i).Name
			names = append(names, name)
			if _, ok := tc.fields[name]; !ok {
				t.Errorf("%s.%s is not classified as %s, %s or %s", tc.typ, name, streamShaping, eventShaping, scheduleOnly)
			}
		}
		for name := range tc.fields {
			if !slices.Contains(names, name) {
				t.Errorf("%s has no field %s", tc.typ, name)
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	base := []Option{WithSeed(7), WithPBS(true), WithMaxInstrs(50_000)}
	run := func(t *testing.T, opts ...Option) *Result {
		t.Helper()
		s, err := New("PI", append(append([]Option(nil), base...), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Result()
	}
	baseline := run(t)
	for _, tc := range []struct {
		typ    string
		fields map[string]keyField
	}{{"sim.Config", simFields}, {"pipeline.Config", coreFields}} {
		for name, f := range tc.fields {
			t.Run(tc.typ+"."+name, func(t *testing.T) {
				s, err := New("PI", base...)
				if err != nil {
					t.Fatal(err)
				}
				err = s.AddMember(append(append([]Option(nil), base...), f.vary)...)
				if f.class == streamShaping {
					if err == nil {
						t.Fatal("a member that retires another instruction stream joined")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if shared := s.members[0].pred == s.members[1].pred; shared != (f.class == scheduleOnly) {
					t.Fatalf("members that differ in a %s field: shared stage = %v", f.class, shared)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				for i, want := range []*Result{baseline, run(t, f.vary)} {
					if a, b := mustJSON(t, s.Results()[i]), mustJSON(t, want); !bytes.Equal(a, b) {
						t.Errorf("member %d: result differs from its solo run:\n got %s\nwant %s", i, a, b)
					}
				}
			})
		}
	}
}

// groupOf builds a session over workload whose members are base plus
// each of members in turn.
func groupOf(t *testing.T, workload string, base []Option, members [][]Option) *Session {
	t.Helper()
	s, err := New(workload, append(append([]Option(nil), base...), members[0]...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members[1:] {
		if err := s.AddMember(append(append([]Option(nil), base...), m...)...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// predictors returns the number of distinct predictors, and so of
// miss-event stages, among the session's members.
func predictors(s *Session) int {
	seen := map[any]bool{}
	for _, m := range s.members {
		seen[m.pred] = true
	}
	return len(seen)
}

// TestResumeGroupReshares: a 4-member group with two event keys (two
// predictors, each on a 4- and an 8-wide core) builds two stages, and so
// does the same group resumed from a checkpoint; the resumed group
// finishes with the results and the checkpoint bytes of an
// uninterrupted run.
func TestResumeGroupReshares(t *testing.T) {
	base := []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(120_000)}
	var members [][]Option
	for _, pred := range []PredictorKind{PredTAGESCL, PredTournament} {
		for _, core := range []pipeline.Config{pipeline.FourWide(), pipeline.EightWide()} {
			members = append(members, []Option{WithPredictor(pred), WithCore(core)})
		}
	}
	whole := groupOf(t, "Bandit", base, members)
	if n := predictors(whole); n != 2 {
		t.Fatalf("a group with 2 event keys built %d predictors", n)
	}
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}

	cut := groupOf(t, "Bandit", base, members)
	if _, err := cut.RunFor(54_321); err != nil {
		t.Fatal(err)
	}
	ck, err := cut.Checkpoint()
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
	if n := predictors(resumed); n != 2 {
		t.Fatalf("the resumed group built %d predictors, want 2", n)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	want, got := whole.Results(), resumed.Results()
	for i := range want {
		if a, b := mustJSON(t, got[i]), mustJSON(t, want[i]); !bytes.Equal(a, b) {
			t.Errorf("member %d: resumed result differs from the uninterrupted run's:\n got %s\nwant %s", i, a, b)
		}
	}
	a, err := whole.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the resumed group ends in another state than the uninterrupted run")
	}
}

// TestResumeRejectsDivergentSharedStage: members that share a
// miss-event stage carry the same predictor section; Resume refuses a
// checkpoint (hand-edited, say) where they differ, naming both members.
func TestResumeRejectsDivergentSharedStage(t *testing.T) {
	base := []Option{WithSeed(7), WithPBS(true), WithMaxInstrs(50_000)}
	s := groupOf(t, "PI", base, [][]Option{
		{WithPredictor(PredTournament)},
		{WithCore(pipeline.FourWide())},
		{WithCore(pipeline.EightWide())},
	})
	if s.members[1].pred != s.members[2].pred {
		t.Fatal("the 4- and 8-wide members do not share a stage")
	}
	if _, err := s.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ck); err != nil {
		t.Fatalf("an intact group checkpoint: %v", err)
	}

	// Member 2's predictor section from a predictor that never ran.
	cold, err := NewPredictor(PredTAGESCL)
	if err != nil {
		t.Fatal(err)
	}
	s.members[2].pred = cold
	edited, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(edited.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Resume(loaded)
	if err == nil || !strings.Contains(err.Error(), "members 1 and 2") {
		t.Fatalf("Resume of diverging shared predictor sections: err = %v, want one naming members 1 and 2", err)
	}
}

// TestResumeRejectsDivergentStageState: a follower's pipeline section
// restores its shared stage (counters, line streaks, caches) again, so
// Resume refuses a checkpoint where that part of it disagrees with the
// lead's, naming both members, instead of letting the last one win.
func TestResumeRejectsDivergentStageState(t *testing.T) {
	base := []Option{WithSeed(7), WithPBS(true), WithMaxInstrs(50_000)}
	s := groupOf(t, "PI", base, [][]Option{
		{WithPredictor(PredTournament)},
		{WithCore(pipeline.FourWide())},
		{WithCore(pipeline.EightWide())},
	})
	if _, err := s.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	intact, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Member 2 writes a stage that never ran; its schedule and its
	// predictor section stay as they were.
	cold := groupOf(t, "PI", base, [][]Option{{WithCore(pipeline.EightWide())}})
	s.members[2].pipe.Events = cold.members[0].pipe.Events
	edited, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	a, b := sections(t, intact), sections(t, edited)
	pred, pipe := memberSection(secPredictor, 2), memberSection(secPipeline, 2)
	if !bytes.Equal(a[pred], b[pred]) || bytes.Equal(a[pipe], b[pipe]) {
		t.Fatal("the edit should change member 2's pipeline section and nothing of its predictor's")
	}
	loaded, err := LoadCheckpoint(edited.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Resume(loaded)
	if err == nil || !strings.Contains(err.Error(), "members 1 and 2") {
		t.Fatalf("Resume of a diverging shared stage: err = %v, want one naming members 1 and 2", err)
	}
}

// sections returns a checkpoint's section payloads by name.
func sections(t *testing.T, c *Checkpoint) map[string][]byte {
	t.Helper()
	dec, err := ckpt.NewDecoder(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range dec.Sections() {
		out[name], _ = dec.Payload(name)
	}
	return out
}
