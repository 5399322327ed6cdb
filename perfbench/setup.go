package main

import (
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/plan"
	"repro/internal/sim"
)

// buildPrograms builds every named program afresh through get (which is
// sim.BuildProgram or a ProgramCache's Get) and predecodes it with
// plan.For, timing the two steps into st.
func buildPrograms(names []string, st *setupTimes, get func(name string) (*isa.Program, error)) (map[string]*isa.Program, error) {
	progs := make(map[string]*isa.Program, len(names))
	for _, name := range names {
		t0 := time.Now()
		p, err := get(name)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		t1 := time.Now()
		if _, err := plan.For(p); err != nil {
			return nil, fmt.Errorf("predecode %s: %w", name, err)
		}
		st.Build += t1.Sub(t0).Seconds()
		st.Predecode += time.Since(t1).Seconds()
		progs[name] = p
	}
	return progs, nil
}

// newSession constructs a session, timing sim.New into st. Set-up
// sessions are discarded: construction is what set-up measures, and a
// timed run starts every session fresh.
func newSession(st *setupTimes, name string, opts ...sim.Option) error {
	t0 := time.Now()
	_, err := sim.New(name, opts...)
	st.NewSession += time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("new session %s: %w", name, err)
	}
	return nil
}

// fingerprint renders everything a simulation produced that must repeat
// exactly across runs of one configuration.
func fingerprint(r *sim.Result) string {
	s := fmt.Sprintf("%+v|%+v|%+v|%v", r.Timing, r.Emu, r.PBSStats, r.Outputs)
	if r.Sampled != nil {
		s += fmt.Sprintf("|%+v", *r.Sampled)
	}
	return s
}
