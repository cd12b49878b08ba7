package flowsim

import "math"

// Sketch is a streaming log-bucketed histogram for flow-completion-time
// quantiles: the load engine pushes millions of fcts through it without
// storing per-flow records. Buckets grow geometrically by sketchGamma,
// bounding the relative error of any reported quantile by ~1% — far
// inside the tolerance of the paper's slowdown comparisons.
type Sketch struct {
	counts []uint64
	n      uint64
	min    float64
	max    float64
}

// The sketch spans [sketchMin, sketchMin·gamma^buckets) seconds; values
// outside clamp into the edge buckets. 1e-7 s to ~1e7 s covers every FCT
// a region simulation can produce.
const (
	sketchMin     = 1e-7
	sketchGamma   = 1.02
	sketchBuckets = 1640
)

// newSketch returns an empty sketch.
func newSketch() *Sketch {
	return &Sketch{
		counts: make([]uint64, sketchBuckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func sketchIndex(x float64) int {
	if x <= sketchMin {
		return 0
	}
	i := int(math.Log(x/sketchMin) / math.Log(sketchGamma))
	if i >= sketchBuckets {
		return sketchBuckets - 1
	}
	return i
}

// observe adds one value.
func (s *Sketch) observe(x float64) {
	s.counts[sketchIndex(x)]++
	s.n++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// merge folds another sketch into this one.
func (s *Sketch) merge(o *Sketch) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Quantile returns the q-th quantile (q in [0,1]) as the geometric
// midpoint of the bucket holding that rank, clamped to the observed
// min/max so extreme quantiles never overshoot the data. Returns 0 for
// an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			v := sketchMin * math.Pow(sketchGamma, float64(i)+0.5)
			return math.Min(math.Max(v, s.min), s.max)
		}
	}
	return s.max
}
