// Package workloads implements the paper's eight probabilistic benchmarks
// (Table II) against the PBS ISA: DOP, Greeks, Swaptions, Genetic, Photon,
// MC-integ, PI and Bandit. Every workload builds the same program in two
// flavours: with its probabilistic branches marked (PROB_CMP/PROB_JMP) or
// as plain compare+jump pairs (the baseline binary). Where applicable, the
// package also provides predicated and CFD-transformed variants for the
// Table I baselines.
//
// Branch-condition restructuring: PBS requires the probabilistic value to
// be compared against a value that is constant within the branch's context
// (§IV). Where the natural source compares against a per-iteration value
// (MC-integ's y < f(x), Photon's s > distToBoundary), the workload
// computes the difference and compares it against the constant zero,
// passing values the control-dependent code needs as additional
// probabilistic registers — the transformation a PBS-aware compiler would
// perform (§V-B).
package workloads

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Params scales a workload.
type Params struct {
	// Scale multiplies the baseline iteration count; 1 is the default
	// experiment size (a few million dynamic instructions).
	Scale int
}

// DefaultParams returns Scale 1.
func DefaultParams() Params { return Params{Scale: 1} }

func (p Params) scale() int64 {
	if p.Scale <= 0 {
		return 1
	}
	return int64(p.Scale)
}

// Category mirrors the paper's classification (§III-A).
type Category int

const (
	// Category1: the probabilistic value is not used after the branch.
	Category1 Category = 1
	// Category2: the probabilistic value (or a derivative) is used by the
	// control-dependent code after the branch.
	Category2 Category = 2
)

// Accuracy is the result of comparing baseline and PBS outputs with the
// workload's application-specific quality metric (§VII-D).
type Accuracy struct {
	Metric string  // e.g. "relative error", "RMS error"
	Value  float64 // measured deviation
	Bound  float64 // acceptance bound
	OK     bool
	Detail string
}

// Variant identifies an alternative build of a workload for the Table I
// baselines.
type Variant int

const (
	// VariantPlain is the ordinary build (prob flag selects marking).
	VariantPlain Variant = iota
	// VariantPredicated replaces the probabilistic branches with
	// branchless (if-converted) code where the compiler could do so.
	VariantPredicated
	// VariantCFD applies control-flow decoupling: the loop is split into a
	// predicate-producing loop and a consuming loop linked by a memory
	// queue.
	VariantCFD
)

// String names the variant ("plain", "predicated", "cfd").
func (v Variant) String() string {
	switch v {
	case VariantPlain:
		return "plain"
	case VariantPredicated:
		return "predicated"
	case VariantCFD:
		return "cfd"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// VariantByName resolves a variant name; the empty string means plain.
func VariantByName(name string) (Variant, error) {
	switch name {
	case "plain", "":
		return VariantPlain, nil
	case "predicated":
		return VariantPredicated, nil
	case "cfd":
		return VariantCFD, nil
	}
	return 0, fmt.Errorf("workloads: unknown variant %q", name)
}

// MarshalText encodes the variant by name, so grid specifications and
// sweep records carry "predicated" rather than a bare integer.
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText decodes a variant name.
func (v *Variant) UnmarshalText(b []byte) error {
	parsed, err := VariantByName(string(b))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// Workload describes one benchmark.
type Workload struct {
	Name        string
	Category    Category
	Description string

	// ProbBranches is the number of static probabilistic branches the
	// marked build contains (Table II).
	ProbBranches int

	// ViaCall reports whether the probabilistic branches are reached
	// through a function call from the loop (Swaptions, Bandit — the cases
	// CFD cannot split, §II-B2).
	ViaCall bool

	// UniformProb reports whether the branch-controlling values derive
	// from a uniform distribution, making the workload eligible for the
	// randomness experiment (Table III excludes DOP and Greeks).
	UniformProb bool

	// Uniformize maps a captured branch-controlling value to [0,1) using
	// its exact CDF. Nil means the empirical rank transform must be used
	// (Photon, whose free-path-minus-distance value has no closed-form
	// marginal).
	Uniformize func(float64) float64

	// Build constructs the program. prob selects probabilistic marking.
	Build func(p Params, prob bool) (*isa.Program, error)

	// BuildVariant constructs a Table I baseline variant; nil entries mean
	// the transformation is inapplicable (the × marks of Table I).
	BuildVariant map[Variant]func(p Params) (*isa.Program, error)

	// CompareOutputs computes the §VII-D accuracy metric between the
	// baseline and PBS output streams.
	CompareOutputs func(orig, pbs []uint64) Accuracy
}

// table is the paper's eight benchmarks in Table II order. Adding a
// workload is one line here. The descriptors are shared by every caller
// and must not be mutated.
var table = [...]*Workload{
	DOP(),
	Greeks(),
	Swaptions(),
	Genetic(),
	Photon(),
	MCInteg(),
	PI(),
	Bandit(),
}

// All returns the benchmarks in Table II order.
func All() []*Workload {
	return append([]*Workload(nil), table[:]...)
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists the workload names in Table II order.
func Names() []string {
	names := make([]string, len(table))
	for i, w := range table {
		names[i] = w.Name
	}
	return names
}

// --- shared helpers ---

func f(bits uint64) float64 { return math.Float64frombits(bits) }

// relErr returns |a-b| / max(|a|, tiny).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Abs(a)
	if m < 1e-300 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / m
}

// relErrAccuracy is the common §VII-D comparison: element-wise relative
// error between two output streams interpreted as floats.
func relErrAccuracy(metric string, bound float64) func(orig, pbs []uint64) Accuracy {
	return func(orig, pbs []uint64) Accuracy {
		if len(orig) != len(pbs) {
			return Accuracy{Metric: metric, Value: math.Inf(1), Bound: bound,
				Detail: fmt.Sprintf("output length mismatch: %d vs %d", len(orig), len(pbs))}
		}
		worst := 0.0
		for i := range orig {
			if e := relErr(f(orig[i]), f(pbs[i])); e > worst {
				worst = e
			}
		}
		return Accuracy{
			Metric: metric,
			Value:  worst,
			Bound:  bound,
			OK:     worst <= bound,
			Detail: fmt.Sprintf("max relative error over %d outputs", len(orig)),
		}
	}
}

// normalCDF is Φ(x), used to uniformize Gaussian-derived branch values.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
