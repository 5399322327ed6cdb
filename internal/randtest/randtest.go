// Package randtest is the statistical randomness battery standing in for
// DieHarder in the Table III experiment: a suite of classical tests
// (Knuth's empirical tests plus NIST-style bit tests) run over the
// probabilistic value streams as generated by the original code and as
// consumed under PBS, each classified PASS / WEAK / FAIL from its p-value
// with DieHarder-like thresholds.
package randtest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Outcome classifies one test run.
type Outcome int

// Outcomes, ordered worst to best.
const (
	Fail Outcome = iota
	Weak
	Pass
)

func (o Outcome) String() string {
	switch o {
	case Fail:
		return "FAIL"
	case Weak:
		return "WEAK"
	case Pass:
		return "PASS"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// DieHarder-like classification thresholds on the p-value.
const (
	failP = 1e-6
	weakP = 0.005
)

// Classify maps a p-value to an outcome.
func Classify(p float64) Outcome {
	if math.IsNaN(p) {
		return Fail
	}
	switch {
	case p < failP || p > 1-failP:
		return Fail
	case p < weakP || p > 1-weakP:
		return Weak
	default:
		return Pass
	}
}

// Test is one battery member: it maps a uniform [0,1) sample to a p-value.
type Test struct {
	Name string
	// MinN is the minimum sample size the test needs.
	MinN int
	Run  func(vals []float64) float64
}

// Result is the outcome of one test on one stream.
type Result struct {
	Name    string
	P       float64
	Outcome Outcome
	Skipped bool
}

// Summary counts outcomes over a battery run.
type Summary struct {
	Pass, Weak, Fail, Skipped int
}

// Add accumulates one result.
func (s *Summary) Add(r Result) {
	if r.Skipped {
		s.Skipped++
		return
	}
	switch r.Outcome {
	case Pass:
		s.Pass++
	case Weak:
		s.Weak++
	case Fail:
		s.Fail++
	}
}

// Total returns the number of executed (non-skipped) tests.
func (s Summary) Total() int { return s.Pass + s.Weak + s.Fail }

// RunBattery executes every battery test on the sample.
func RunBattery(vals []float64) []Result {
	tests := Battery()
	out := make([]Result, 0, len(tests))
	for _, t := range tests {
		r := Result{Name: t.Name}
		if len(vals) < t.MinN {
			r.Skipped = true
		} else {
			r.P = t.Run(vals)
			r.Outcome = Classify(r.P)
		}
		out = append(out, r)
	}
	return out
}

// Summarize runs the battery and counts outcomes.
func Summarize(vals []float64) Summary {
	var s Summary
	for _, r := range RunBattery(vals) {
		s.Add(r)
	}
	return s
}

// Battery returns the full test suite: classical uniformity, independence
// and bit-level tests with several parameterisations each.
func Battery() []Test {
	var tests []Test

	tests = append(tests, Test{"ks-uniform", 100, stats.KSUniformP})
	tests = append(tests, Test{"ks-uniform-firsthalf", 200, func(v []float64) float64 {
		return stats.KSUniformP(v[:len(v)/2])
	}})
	tests = append(tests, Test{"ks-uniform-secondhalf", 200, func(v []float64) float64 {
		return stats.KSUniformP(v[len(v)/2:])
	}})

	for _, bins := range []int{10, 32, 100} {
		bins := bins
		tests = append(tests, Test{fmt.Sprintf("chi2-frequency-%d", bins), bins * 20,
			func(v []float64) float64 { return chiSquareFrequency(v, bins) }})
	}

	tests = append(tests, Test{"runs-median", 100, runsTest})

	for _, lag := range []int{1, 2, 5} {
		lag := lag
		tests = append(tests, Test{fmt.Sprintf("autocorr-lag%d", lag), 200,
			func(v []float64) float64 { return autocorrTest(v, lag) }})
	}

	for _, t := range []int{3, 5, 8} {
		t := t
		tests = append(tests, Test{fmt.Sprintf("max-of-%d", t), t * 200,
			func(v []float64) float64 { return maxOfT(v, t) }})
	}

	tests = append(tests, Test{"gap-0.0-0.5", 2000, func(v []float64) float64 {
		return gapTest(v, 0, 0.5)
	}})
	tests = append(tests, Test{"gap-0.25-0.75", 2000, func(v []float64) float64 {
		return gapTest(v, 0.25, 0.75)
	}})
	tests = append(tests, Test{"gap-0.0-0.25", 4000, func(v []float64) float64 {
		return gapTest(v, 0, 0.25)
	}})

	tests = append(tests, Test{"permutation-3", 3000, func(v []float64) float64 {
		return permutationTest(v, 3)
	}})
	tests = append(tests, Test{"permutation-4", 12000, func(v []float64) float64 {
		return permutationTest(v, 4)
	}})

	tests = append(tests, Test{"coupon-collector-5", 5000, func(v []float64) float64 {
		return couponTest(v, 5)
	}})

	tests = append(tests, Test{"poker-4x8", 4000, func(v []float64) float64 {
		return pokerTest(v, 4, 8)
	}})

	tests = append(tests, Test{"serial-pairs-8", 2000, func(v []float64) float64 {
		return serialPairs(v, 8)
	}})

	for _, bit := range []int{1, 2, 8} {
		bit := bit
		tests = append(tests, Test{fmt.Sprintf("monobit-b%d", bit), 1000,
			func(v []float64) float64 { return monobit(v, bit) }})
	}

	tests = append(tests, Test{"block-frequency-128", 2048, blockFrequency})
	tests = append(tests, Test{"longest-run-128", 4096, longestRun})
	tests = append(tests, Test{"birthday-spacings", 4096, birthdaySpacings})

	return tests
}

// --- individual tests ---

// chiSquareFrequency bins the sample uniformly and applies a chi-square
// goodness-of-fit test.
func chiSquareFrequency(vals []float64, bins int) float64 {
	counts := make([]float64, bins)
	for _, v := range vals {
		i := int(v * float64(bins))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	expected := float64(len(vals)) / float64(bins)
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	return stats.ChiSquareP(chi2, bins-1)
}

// runsTest applies the Wald-Wolfowitz runs test around the theoretical
// median 0.5.
func runsTest(vals []float64) float64 {
	var n1, n2 int
	runs := 1
	prev := vals[0] >= 0.5
	if prev {
		n1++
	} else {
		n2++
	}
	for _, v := range vals[1:] {
		cur := v >= 0.5
		if cur {
			n1++
		} else {
			n2++
		}
		if cur != prev {
			runs++
		}
		prev = cur
	}
	if n1 == 0 || n2 == 0 {
		return 0
	}
	nf1, nf2 := float64(n1), float64(n2)
	mean := 2*nf1*nf2/(nf1+nf2) + 1
	vari := 2 * nf1 * nf2 * (float64(2*nf1*nf2) - nf1 - nf2) /
		((nf1 + nf2) * (nf1 + nf2) * (nf1 + nf2 - 1))
	if vari <= 0 {
		return 0
	}
	z := (float64(runs) - mean) / math.Sqrt(vari)
	return stats.TwoSidedNormalP(z)
}

// autocorrTest measures the lag-k sample autocorrelation; under H0 it is
// approximately N(0, 1/n).
func autocorrTest(vals []float64, lag int) float64 {
	n := len(vals) - lag
	if n < 2 {
		return math.NaN()
	}
	m := stats.Mean(vals)
	var num, den float64
	for i := 0; i < n; i++ {
		num += float64((vals[i] - m) * (vals[i+lag] - m))
	}
	for _, v := range vals {
		den += float64((v - m) * (v - m))
	}
	if den == 0 {
		return 0
	}
	r := num / den
	z := r * math.Sqrt(float64(len(vals)))
	return stats.TwoSidedNormalP(z)
}

// maxOfT groups the sample into t-tuples; the maximum of t uniforms has
// CDF x^t, so max^t is uniform and KS-testable.
func maxOfT(vals []float64, t int) float64 {
	groups := len(vals) / t
	xs := make([]float64, groups)
	for g := 0; g < groups; g++ {
		mx := 0.0
		for i := 0; i < t; i++ {
			if v := vals[g*t+i]; v > mx {
				mx = v
			}
		}
		xs[g] = math.Pow(mx, float64(t))
	}
	return stats.KSUniformP(xs)
}

// gapTest examines the lengths of gaps between visits to [lo, hi); under
// H0 they are geometric with p = hi-lo (Knuth 3.3.2-D).
func gapTest(vals []float64, lo, hi float64) float64 {
	p := hi - lo
	const maxGap = 12
	counts := make([]float64, maxGap+1)
	gap := 0
	total := 0
	for _, v := range vals {
		if v >= lo && v < hi {
			if gap > maxGap {
				gap = maxGap
			}
			counts[gap]++
			total++
			gap = 0
		} else {
			gap++
		}
	}
	if total < 50 {
		return math.NaN()
	}
	chi2 := 0.0
	for g := 0; g <= maxGap; g++ {
		var prob float64
		if g < maxGap {
			prob = p * math.Pow(1-p, float64(g))
		} else {
			prob = math.Pow(1-p, float64(maxGap))
		}
		expected := float64(prob * float64(total))
		if expected < 1e-9 {
			continue
		}
		d := counts[g] - expected
		chi2 += d * d / expected
	}
	return stats.ChiSquareP(chi2, maxGap)
}

// permutationTest classifies consecutive non-overlapping k-tuples by their
// ordering pattern; all k! patterns are equally likely (Knuth 3.3.2-P).
func permutationTest(vals []float64, k int) float64 {
	fact := 1
	for i := 2; i <= k; i++ {
		fact *= i
	}
	counts := make([]float64, fact)
	groups := len(vals) / k
	tuple := make([]float64, k)
	for g := 0; g < groups; g++ {
		copy(tuple, vals[g*k:(g+1)*k])
		// Lehmer code of the permutation.
		code := 0
		for i := 0; i < k; i++ {
			rank := 0
			for j := i + 1; j < k; j++ {
				if tuple[j] < tuple[i] {
					rank++
				}
			}
			code = code*(k-i) + rank
		}
		counts[code]++
	}
	expected := float64(groups) / float64(fact)
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	return stats.ChiSquareP(chi2, fact-1)
}

// couponTest measures how many draws are needed to see all d categories
// (Knuth 3.3.2-E), chi-squared against the theoretical distribution.
func couponTest(vals []float64, d int) float64 {
	maxLen := 3 * d
	counts := make([]float64, maxLen+1)
	seen := make([]bool, d)
	distinct, segLen, total := 0, 0, 0
	for _, v := range vals {
		c := int(v * float64(d))
		if c >= d {
			c = d - 1
		}
		segLen++
		if !seen[c] {
			seen[c] = true
			distinct++
		}
		if distinct == d {
			l := segLen
			if l > maxLen {
				l = maxLen
			}
			counts[l]++
			total++
			for i := range seen {
				seen[i] = false
			}
			distinct, segLen = 0, 0
		}
	}
	if total < 30 {
		return math.NaN()
	}
	// P(length = l) = (d!/d^l) * S(l-1, d-1), Knuth 3.3.2 eq. (8).
	s2 := stirling2(maxLen)
	dFact := 1.0
	for i := 2; i <= d; i++ {
		dFact *= float64(i)
	}
	probs := make([]float64, maxLen+1)
	cum := 0.0
	for l := d; l < maxLen; l++ {
		probs[l] = float64(dFact / math.Pow(float64(d), float64(l)) * s2[l-1][d-1])
		cum += probs[l]
	}
	probs[maxLen] = 1 - cum // tail mass for truncated lengths
	chi2 := 0.0
	df := 0
	for l := d; l <= maxLen; l++ {
		expected := float64(probs[l] * float64(total))
		if expected < 1 {
			continue
		}
		dlt := counts[l] - expected
		chi2 += dlt * dlt / expected
		df++
	}
	if df < 2 {
		return math.NaN()
	}
	return stats.ChiSquareP(chi2, df-1)
}

// pokerTest maps each value to a digit in [0,d) and classifies hands of
// k digits by the number of distinct digits (Knuth 3.3.2-C, via Stirling
// numbers).
func pokerTest(vals []float64, k, d int) float64 {
	hands := len(vals) / k
	counts := make([]float64, k+1)
	for h := 0; h < hands; h++ {
		var mask uint64
		for i := 0; i < k; i++ {
			c := int(vals[h*k+i] * float64(d))
			if c >= d {
				c = d - 1
			}
			mask |= 1 << uint(c)
		}
		distinct := 0
		for ; mask != 0; mask &= mask - 1 {
			distinct++
		}
		counts[distinct]++
	}
	// P(r distinct) = d(d-1)...(d-r+1)/d^k * S(k, r)
	stirling := stirling2(k)
	chi2 := 0.0
	df := 0
	for r := 1; r <= k; r++ {
		perm := 1.0
		for i := 0; i < r; i++ {
			perm *= float64(d - i)
		}
		prob := perm / math.Pow(float64(d), float64(k)) * stirling[k][r]
		expected := float64(prob * float64(hands))
		if expected < 1 {
			continue
		}
		dlt := counts[r] - expected
		chi2 += dlt * dlt / expected
		df++
	}
	if df < 2 {
		return math.NaN()
	}
	return stats.ChiSquareP(chi2, df-1)
}

// stirling2 returns Stirling numbers of the second kind up to S(n, n).
func stirling2(n int) [][]float64 {
	s := make([][]float64, n+1)
	for i := range s {
		s[i] = make([]float64, n+1)
	}
	s[0][0] = 1
	for i := 1; i <= n; i++ {
		for j := 1; j <= i; j++ {
			s[i][j] = float64(float64(j)*s[i-1][j]) + s[i-1][j-1]
		}
	}
	return s
}

// serialPairs classifies consecutive non-overlapping pairs into a d×d grid
// (Knuth 3.3.2-B).
func serialPairs(vals []float64, d int) float64 {
	pairs := len(vals) / 2
	counts := make([]float64, d*d)
	for p := 0; p < pairs; p++ {
		a := int(vals[2*p] * float64(d))
		b := int(vals[2*p+1] * float64(d))
		if a >= d {
			a = d - 1
		}
		if b >= d {
			b = d - 1
		}
		counts[a*d+b]++
	}
	expected := float64(pairs) / float64(d*d)
	chi2 := 0.0
	for _, c := range counts {
		dlt := c - expected
		chi2 += dlt * dlt / expected
	}
	return stats.ChiSquareP(chi2, d*d-1)
}

// bitOf extracts a bit from a uniform value: bit 1 is the half-interval
// bit (v >= 0.5), bit k compares the k-th binary digit.
func bitOf(v float64, bit int) int {
	scaled := v * float64(uint64(1)<<uint(bit))
	return int(scaled) & 1
}

// monobit tests the balance of the chosen binary digit.
func monobit(vals []float64, bit int) float64 {
	ones := 0
	for _, v := range vals {
		ones += bitOf(v, bit)
	}
	n := float64(len(vals))
	z := (2*float64(ones) - n) / math.Sqrt(n)
	return stats.TwoSidedNormalP(z)
}

// blockFrequency is the NIST block-frequency test on the half-interval
// bit with 128-bit blocks.
func blockFrequency(vals []float64) float64 {
	const m = 128
	blocks := len(vals) / m
	chi2 := 0.0
	for b := 0; b < blocks; b++ {
		ones := 0
		for i := 0; i < m; i++ {
			ones += bitOf(vals[b*m+i], 1)
		}
		pi := float64(float64(ones) / m)
		chi2 += float64(4 * m * (pi - 0.5) * (pi - 0.5))
	}
	return stats.ChiSquareP(chi2, blocks)
}

// longestRun is a NIST-style longest-run-of-ones test on 128-bit blocks.
func longestRun(vals []float64) float64 {
	const m = 128
	// Expected distribution of the longest run in a 128-bit block
	// (NIST SP 800-22 table for M=128, classes <=4,5,6,7,8,>=9).
	probs := []float64{0.1174, 0.2430, 0.2494, 0.1752, 0.1027, 0.1124}
	blocks := len(vals) / m
	counts := make([]float64, len(probs))
	for b := 0; b < blocks; b++ {
		longest, run := 0, 0
		for i := 0; i < m; i++ {
			if bitOf(vals[b*m+i], 1) == 1 {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
		idx := longest - 4
		if idx < 0 {
			idx = 0
		}
		if idx >= len(probs) {
			idx = len(probs) - 1
		}
		counts[idx]++
	}
	chi2 := 0.0
	for i, p := range probs {
		expected := float64(p * float64(blocks))
		d := counts[i] - expected
		chi2 += d * d / expected
	}
	return stats.ChiSquareP(chi2, len(probs)-1)
}

// birthdaySpacings is a reduced birthday-spacings test: m "birthdays" from
// the sample are placed on 2^24 days; the number of duplicate spacings is
// approximately Poisson (Marsaglia).
func birthdaySpacings(vals []float64) float64 {
	const (
		m    = 512
		days = 1 << 24
	)
	if len(vals) < m {
		return math.NaN()
	}
	bd := make([]int64, m)
	for i := 0; i < m; i++ {
		bd[i] = int64(vals[i] * days)
	}
	slices.Sort(bd)
	spacings := make([]int64, m-1)
	for i := 1; i < m; i++ {
		spacings[i-1] = bd[i] - bd[i-1]
	}
	slices.Sort(spacings)
	dups := 0
	for i := 1; i < len(spacings); i++ {
		if spacings[i] == spacings[i-1] {
			dups++
		}
	}
	// lambda = m^3 / (4 * days)
	lambda := float64(m) * float64(m) * float64(m) / (4 * days)
	// Two-sided p from the Poisson CDF.
	cdf := stats.PoissonCDF(dups, lambda)
	var p float64
	if dups == 0 {
		p = cdf
	} else {
		lower := stats.PoissonCDF(dups-1, lambda)
		p = math.Min(cdf, 1-lower) * 2
	}
	return math.Min(1, math.Max(0, p))
}
