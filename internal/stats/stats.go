// Package stats provides the statistical machinery the evaluation needs:
// moments, Student-t confidence intervals (the paper reports 95% CIs
// across seeds), proportion intervals for the Genetic success rate, RMS
// error, and the special-function CDFs (normal, chi-square, Kolmogorov)
// that the randomness battery converts test statistics into p-values with.
//
// A product that feeds a sum is written float64(x*y): the explicit
// conversion rounds it, which forbids the compiler from fusing the two
// into one FMA instruction (arm64, ppc64le and s390x would), so every
// GOARCH computes the same bits as amd64.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// RMS returns the root-mean-square of element-wise differences.
func RMS(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: RMS length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// tTable95 holds two-sided 97.5% Student-t quantiles for df 1..30.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TQuantile95(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.96
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether two intervals intersect — the paper's test for
// "no statistical evidence that PBS differs from the original run".
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

func (iv Interval) String() string { return fmt.Sprintf("[%.3g, %.3g]", iv.Lo, iv.Hi) }

// Summary pairs a sample mean with its 95% Student-t confidence
// interval — the per-metric record a merged multi-seed sweep point
// carries (see internal/sweep.Aggregate).
type Summary struct {
	Mean float64
	CI   Interval
}

func (s Summary) String() string { return fmt.Sprintf("%.4g %v", s.Mean, s.CI) }

// Summarize95 condenses a sample into its mean and 95% CI.
func Summarize95(xs []float64) Summary {
	m, iv := MeanCI95(xs)
	return Summary{Mean: m, CI: iv}
}

// MeanCI95 returns the sample mean and its 95% Student-t confidence
// interval.
func MeanCI95(xs []float64) (float64, Interval) {
	m := Mean(xs)
	n := len(xs)
	if n < 2 {
		return m, Interval{m, m}
	}
	half := TQuantile95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
	return m, Interval{m - half, m + half}
}

// ProportionCI95 returns the Wilson 95% interval for k successes in n
// trials.
func ProportionCI95(k, n int) Interval {
	if n == 0 {
		return Interval{0, 1}
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return Interval{math.Max(0, center-half), math.Min(1, center+half)}
}

// NormalCDF is Φ(x), the standard normal CDF.
func NormalCDF(x float64) float64 { return float64(0.5 * math.Erfc(-x/math.Sqrt2)) }

// TwoSidedNormalP converts a z-score to a two-sided p-value.
func TwoSidedNormalP(z float64) float64 {
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	return math.Min(1, math.Max(0, p))
}

// regularizedGammaP computes P(a, x), the lower regularized incomplete
// gamma function, via series / continued fraction (Numerical Recipes
// style).
func regularizedGammaP(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		// Series representation.
		ap := a
		sum := 1.0 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del = float64(del * (x / ap))
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
	default:
		// Continued fraction for Q(a,x), then P = 1-Q.
		const tiny = 1e-300
		b := x + 1 - a
		c := 1 / tiny
		d := 1 / b
		h := d
		for i := 1; i < 500; i++ {
			an := -float64(i) * (float64(i) - a)
			b += 2
			d = float64(an*d) + b
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = b + an/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			del := float64(d * c)
			h *= del
			if math.Abs(del-1) < 1e-15 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return 1 - float64(math.Exp(-x+float64(a*math.Log(x))-lg)*h)
	}
}

// ChiSquareP returns the upper-tail p-value of a chi-square statistic with
// df degrees of freedom.
func ChiSquareP(chi2 float64, df int) float64 {
	if df <= 0 || chi2 < 0 {
		return math.NaN()
	}
	p := 1 - regularizedGammaP(float64(df)/2, chi2/2)
	return math.Min(1, math.Max(0, p))
}

// KolmogorovP returns the asymptotic upper-tail p-value of the Kolmogorov
// D statistic for sample size n.
func KolmogorovP(d float64, n int) float64 {
	if n <= 0 {
		return math.NaN()
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	// Q_KS(λ) = 2 Σ (-1)^{j-1} e^{-2 j² λ²}
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := float64(sign * math.Exp(-2*float64(j*j)*lambda*lambda))
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	return math.Min(1, math.Max(0, p))
}

// KSUniformP returns the Kolmogorov-Smirnov p-value against U(0,1).
func KSUniformP(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	d := 0.0
	for i, v := range sorted {
		hi := float64(i+1)/float64(n) - v
		lo := v - float64(i)/float64(n)
		if hi > d {
			d = hi
		}
		if lo > d {
			d = lo
		}
	}
	return KolmogorovP(d, n)
}

// PoissonCDF returns P(X <= k) for a Poisson(lambda) variable.
func PoissonCDF(k int, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	// Sum terms in log space for stability.
	logTerm := -lambda
	sum := math.Exp(logTerm)
	for i := 1; i <= k; i++ {
		logTerm += math.Log(lambda) - math.Log(float64(i))
		sum += math.Exp(logTerm)
	}
	return math.Min(1, sum)
}

// RankUniformize maps a sample to (0,1) via its empirical ranks: the i-th
// order statistic maps to (i+0.5)/n. Ties receive their average rank. Used
// when a branch value's marginal distribution has no closed form (Photon).
func RankUniformize(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && vals[idx[j+1]] == vals[idx[i]] {
			j++
		}
		avg := (float64(float64(i+j)/2) + 0.5) / float64(n)
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
