// Package branch implements the dynamic branch predictors the paper
// evaluates PBS against: a ~1 KB Pentium-M-style tournament predictor
// (global + bimodal + loop components, after Uzelac & Milenkovic) and an
// ~8 KB TAGE-SC-L predictor (TAGE tagged geometric tables + statistical
// corrector + loop predictor, after Seznec's CBP-5 design), plus trivial
// baselines for testing.
package branch

import (
	"fmt"
	"sync"

	"repro/internal/ckpt"
)

// predictors is the fixed set of front-end predictors, in the order the
// paper discusses them. Adding a predictor is one line here; each
// factory returns a fresh predictor in its power-on state.
var predictors = [...]struct {
	name    string
	factory func() Predictor
}{
	{"tournament", func() Predictor { return NewTournament() }},
	{"tage-sc-l", func() Predictor { return NewTAGESCL() }},
	{"always-taken", func() Predictor { return AlwaysTaken{} }},
	{"never-taken", func() Predictor { return NeverTaken{} }},
}

// New instantiates a fresh predictor by name.
func New(name string) (Predictor, error) {
	for _, p := range predictors {
		if p.name == name {
			return p.factory(), nil
		}
	}
	return nil, fmt.Errorf("branch: unknown predictor %q (known: %v)", name, Names())
}

// Released predictors wait here for the next constructor of their kind
// (see Release), which resets one to the power-on state instead of
// allocating its tables afresh.
var tagePool, tournamentPool sync.Pool

// Release hands p's tables back for a later constructor of its kind to
// reuse; p must not be used afterwards. Predictors without tables are
// not kept.
func Release(p Predictor) {
	switch p := p.(type) {
	case *TAGESCL:
		tagePool.Put(p)
	case *Tournament:
		tournamentPool.Put(p)
	}
}

// Names lists the predictor names in table order.
func Names() []string {
	out := make([]string, len(predictors))
	for i, p := range predictors {
		out[i] = p.name
	}
	return out
}

// Predictor is a conditional branch direction predictor. Predict is called
// at fetch with the branch PC; Update is called in retirement order with
// the actual outcome and the prediction previously returned. Every
// predictor checkpoints its mutable state (see state.go).
type Predictor interface {
	ckpt.Checkpointable

	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome.
	Update(pc uint64, taken, pred bool)
	// Name identifies the predictor.
	Name() string
}

// counter helpers: n-bit saturating counters stored as unsigned with
// midpoint threshold.

func ctrInc(c uint8, max uint8) uint8 {
	if c < max {
		return c + 1
	}
	return c
}

func ctrDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

// sctrUpdate moves a signed saturating counter in [-lim-1, lim] toward
// taken/not-taken.
func sctrUpdate(c int8, taken bool, lim int8) int8 {
	if taken {
		if c < lim {
			return c + 1
		}
		return c
	}
	if c > -lim-1 {
		return c - 1
	}
	return c
}

// AlwaysTaken predicts every branch taken.
type AlwaysTaken struct{}

// Predict implements Predictor.
func (AlwaysTaken) Predict(uint64) bool { return true }

// Update implements Predictor.
func (AlwaysTaken) Update(uint64, bool, bool) {}

// Name implements Predictor.
func (AlwaysTaken) Name() string { return "always-taken" }

// NeverTaken predicts every branch not taken.
type NeverTaken struct{}

// Predict implements Predictor.
func (NeverTaken) Predict(uint64) bool { return false }

// Update implements Predictor.
func (NeverTaken) Update(uint64, bool, bool) {}

// Name implements Predictor.
func (NeverTaken) Name() string { return "never-taken" }

// mix hashes a PC into a table index seed (Fibonacci hashing).
func mix(pc uint64) uint64 {
	return pc * 0x9e3779b97f4a7c15
}
