package main

import (
	"fmt"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending sample, 0 for
// an empty one. The rank is given in per mille (950 is p95) so that rank
// arithmetic stays in integers.
func percentile(asc []float64, permille int) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := (permille*len(asc)+999)/1000 - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

// median of an unsorted sample, averaging the middle two of an even one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailSteps are the percentiles, in per mille, a timing may be reported
// at, in the order they are tried.
var tailSteps = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be more than a restatement of the maximum.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailSteps that has at
// least minBeyond of n samples beyond it; ok is false when even the
// lowest step has not.
func tailPercentile(n int) (permille int, ok bool) {
	for _, pm := range tailSteps {
		if n*(1000-pm)/1000 >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// summary is a timing reported the way every timing here is: the median,
// the highest percentile the sample supports, and the sample count.
type summary struct {
	N      int
	P50    float64
	TailPM int // per mille; 0 when the sample is too small for any tail
	Tail   float64
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	out := summary{N: len(s), P50: median(s)}
	if pm, ok := tailPercentile(len(s)); ok {
		out.TailPM, out.Tail = pm, percentile(s, pm)
	}
	return out
}

func (s summary) String() string {
	if s.TailPM == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail)", s.P50, s.N)
	}
	return fmt.Sprintf("p50 %.4g p%g %.4g (n=%d)", s.P50, float64(s.TailPM)/10, s.Tail, s.N)
}
