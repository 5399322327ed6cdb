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
				if shared := s.members[0].pipe.Events == s.members[1].pipe.Events; shared != (f.class == scheduleOnly) {
					t.Fatalf("members that differ in a %s field: shared stage = %v", f.class, shared)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				for i, want := range []*Result{baseline, run(t, f.vary)} {
					if a, b := mustJSON(t, results(t, s)[i]), mustJSON(t, want); !bytes.Equal(a, b) {
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

// stages returns the number of distinct miss-event stages, and so of
// predictors, among the session's members.
func stages(s *Session) int {
	seen := map[*pipeline.Events]bool{}
	for _, m := range s.members {
		seen[m.pipe.Events] = true
	}
	return len(seen)
}

// figure78Group builds the four members of a Figure 7/8 stream group
// over workload — both predictors, each on the 4- and the 8-wide core —
// with base options.
func figure78Group(t *testing.T, workload string, base []Option) *Session {
	t.Helper()
	var members [][]Option
	for _, pred := range []PredictorKind{PredTAGESCL, PredTournament} {
		for _, core := range []pipeline.Config{pipeline.FourWide(), pipeline.EightWide()} {
			members = append(members, []Option{WithPredictor(pred), WithCore(core)})
		}
	}
	return groupOf(t, workload, base, members)
}

// TestResumeGroupReshares: a 4-member group with two event keys (two
// predictors, each on a 4- and an 8-wide core) builds two stages, and so
// does the same group resumed from a checkpoint; the resumed group
// finishes with the results and the checkpoint bytes of an
// uninterrupted run.
func TestResumeGroupReshares(t *testing.T) {
	base := []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(120_000)}
	whole := figure78Group(t, "Bandit", base)
	if n := stages(whole); n != 2 {
		t.Fatalf("a group with 2 event keys built %d stages", n)
	}
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}

	cut := figure78Group(t, "Bandit", base)
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
	if n := stages(resumed); n != 2 {
		t.Fatalf("the resumed group built %d stages, want 2", n)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	want, got := results(t, whole), results(t, resumed)
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

// TestGroupCheckpointWritesStagesOnce: a Figure 7/8 group checkpoint writes
// each of its two miss-event stages once, as stage/0 (TAGE-SC-L) and
// stage/1 (tournament), and each member's pipeline section holds its
// schedule alone: it restores into the member's pipeline with no byte
// left over, so it carries no predictor or cache state.
func TestGroupCheckpointWritesStagesOnce(t *testing.T) {
	s := figure78Group(t, "Bandit", []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(300_000)})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("four-member group checkpoint: %d bytes", len(ck.Bytes()))
	dec, err := ckpt.NewDecoder(ck.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{secConfig, secEmu, secRNG, secPBS, "stage/0", "stage/1",
		"pipeline/0", "pipeline/1", "pipeline/2", "pipeline/3", secSession}
	if got := dec.Sections(); !slices.Equal(got, want) {
		t.Fatalf("sections %q, want %q", got, want)
	}
	for k, pred := range []PredictorKind{PredTAGESCL, PredTournament} {
		r, _ := dec.Section(indexed(secStage, k))
		if name := r.String(); name != string(pred) {
			t.Errorf("stage/%d holds predictor %q, want %q", k, name, pred)
		}
	}
	fresh := figure78Group(t, "Bandit", []Option{WithSeed(11), WithPBS(true), WithMaxInstrs(300_000)})
	for i, m := range fresh.members {
		r, _ := dec.Section(indexed(secPipeline, i))
		if err := m.pipe.RestoreState(r); err != nil {
			t.Fatalf("pipeline/%d: %v", i, err)
		}
		if r.Len() != 0 {
			t.Errorf("pipeline/%d holds %d bytes beyond its schedule", i, r.Len())
		}
	}
}

// TestResumeRejectsStageSectionMismatch: Resume refuses a group
// checkpoint that lacks a stage section its members' event keys need,
// or has one they do not, naming the section.
func TestResumeRejectsStageSectionMismatch(t *testing.T) {
	base := []Option{WithSeed(7), WithPBS(true), WithMaxInstrs(50_000)}
	newGroup := func() *Session {
		s := groupOf(t, "PI", base, [][]Option{
			{WithPredictor(PredTournament)},
			{WithCore(pipeline.FourWide())},
			{WithCore(pipeline.EightWide())},
		})
		if _, err := s.RunFor(10_000); err != nil {
			t.Fatal(err)
		}
		return s
	}
	intact, err := newGroup().Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(intact); err != nil {
		t.Fatalf("an intact group checkpoint: %v", err)
	}
	cold := groupOf(t, "PI", base, [][]Option{{WithPredictor(PredTournament)}})
	for _, tc := range []struct {
		name    string
		edit    func(st []*pipeline.Events) []*pipeline.Events
		section string
	}{
		{"missing", func(st []*pipeline.Events) []*pipeline.Events { return st[:1] }, "stage/1"},
		{"extra", func(st []*pipeline.Events) []*pipeline.Events { return append(st, cold.timing.stages[0]) }, "stage/2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newGroup()
			s.timing.stages = tc.edit(s.timing.stages)
			edited, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(edited.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			_, err = Resume(loaded)
			if err == nil || !strings.Contains(err.Error(), tc.section) {
				t.Fatalf("Resume: err = %v, want one naming %s", err, tc.section)
			}
		})
	}
}
