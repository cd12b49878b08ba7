// Package stats provides the small set of descriptive statistics the
// evaluation harness uses: percentiles, empirical CDFs, and means. All
// functions treat the input as a sample and do not mutate it.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics. It returns NaN for an empty
// sample and panics on an out-of-range p, which is a programming error.
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Max returns the sample maximum, or NaN for an empty sample.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FractionAbove returns the fraction of the sample strictly above the
// threshold, or NaN for an empty sample.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDFAt returns the empirical CDF evaluated at x: the fraction of the
// sample ≤ x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
