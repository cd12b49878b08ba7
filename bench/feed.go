package main

import (
	"math/rand"

	"iris/internal/hose"
	"iris/internal/traffic"
)

// The tick workloads generate their own traffic instead of using
// traffic.Evolver: the evolver's bounded mode multiplies the previous
// matrix and re-clamps it every step, a downward-drifting walk (a 20-DC
// region loses most of its circuits over a thousand ticks), so tick cost
// would depend on how long the run has been going. Both feeds here redraw
// demand relative to a fixed base matrix, which makes every tick a draw
// from one distribution.

// feedSpread is the relative half-width of a redraw: base×(1±feedSpread·u).
const feedSpread = 0.4

// feedUtil is the hose utilisation the base matrix and every redraw are
// clamped to.
const feedUtil = 0.7

// baseMatrix is the region's heavy-tailed base demand in wavelengths.
func baseMatrix(seed int64, dcs []int, caps map[int]float64) *traffic.Matrix {
	return traffic.HeavyTailed(rand.New(rand.NewSource(seed)), dcs, caps, feedUtil)
}

func scaledCaps(caps map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(caps))
	for dc, c := range caps {
		out[dc] = feedUtil * c
	}
	return out
}

// denseFeed redraws every pair from the base matrix on every tick, so
// every pair re-solves and the reconfiguration touches the whole region.
type denseFeed struct {
	rng   *rand.Rand
	base  *traffic.Matrix
	pairs []hose.Pair
	caps  map[int]float64 // already scaled by feedUtil
}

func newDenseFeed(seed int64, base *traffic.Matrix, caps map[int]float64) *denseFeed {
	return &denseFeed{
		rng:   rand.New(rand.NewSource(seed)),
		base:  base,
		pairs: base.Pairs(),
		caps:  scaledCaps(caps),
	}
}

// Next implements traffic.Source; it never exhausts.
func (f *denseFeed) Next() (*traffic.Matrix, bool) {
	m := traffic.NewMatrix(f.base.DCs)
	use := make(map[int]float64, len(f.base.DCs))
	for _, p := range f.pairs {
		v := redraw(f.rng, f.base.Demand[p])
		m.Demand[p] = v
		use[p.A] += v
		use[p.B] += v
	}
	// Scale each pair by what its fuller endpoint needs to fit its hose.
	// Matrix.ClampToHose would do, but it sums in map order, so the same
	// seed would not give bit-identical matrices.
	for _, p := range f.pairs {
		scale := 1.0
		for _, dc := range [2]int{p.A, p.B} {
			if s := f.caps[dc] / use[dc]; s < scale {
				scale = s
			}
		}
		m.Demand[p] *= scale
	}
	return m, true
}

// sparseFeed holds the matrix and redraws two pairs per tick, the delta
// allocator's intended input. Pairs are drawn from those with at least
// one wavelength of base demand, so a redraw almost always moves a
// circuit count and the tick commits. A redrawn pair is limited to the
// hose headroom of its own endpoints: clamping the whole matrix instead
// would shrink the neighbours of a full DC for good, which is the drift
// this feed exists to avoid.
type sparseFeed struct {
	rng      *rand.Rand
	base     *traffic.Matrix
	cur      *traffic.Matrix
	eligible []hose.Pair
	caps     map[int]float64 // already scaled by feedUtil
	use      map[int]float64 // per-DC aggregate of cur
	started  bool
}

// sparsePairsPerTick is how many pairs a sparse tick redraws.
const sparsePairsPerTick = 2

// sparseMinBase is the base demand, in wavelengths, a pair needs to be
// redrawn. At 2 a redraw spans more than a wavelength, and about 93 % of
// ticks move a circuit count and commit; at 1 only 84 % do.
const sparseMinBase = 2

func newSparseFeed(seed int64, base *traffic.Matrix, caps map[int]float64) *sparseFeed {
	f := &sparseFeed{
		rng:  rand.New(rand.NewSource(seed)),
		base: base,
		cur:  base.Clone(),
		caps: scaledCaps(caps),
	}
	// Summed in pair order, not with Matrix.PerDC's map order, so that the
	// headroom a redraw is limited to is the same on every run.
	f.use = make(map[int]float64, len(base.DCs))
	for _, p := range base.Pairs() {
		f.use[p.A] += base.Demand[p]
		f.use[p.B] += base.Demand[p]
		if base.Demand[p] >= sparseMinBase {
			f.eligible = append(f.eligible, p)
		}
	}
	return f
}

// Next implements traffic.Source; the first matrix is the base itself.
func (f *sparseFeed) Next() (*traffic.Matrix, bool) {
	if !f.started {
		f.started = true
		return f.cur.Clone(), true
	}
	for i := 0; i < sparsePairsPerTick && len(f.eligible) > 0; i++ {
		p := f.eligible[f.rng.Intn(len(f.eligible))]
		old := f.cur.Demand[p]
		v := redraw(f.rng, f.base.Demand[p])
		for _, dc := range [2]int{p.A, p.B} {
			if room := f.caps[dc] - f.use[dc] + old; v > room {
				v = room
			}
		}
		if v < 0 {
			v = 0
		}
		f.cur.Demand[p] = v
		f.use[p.A] += v - old
		f.use[p.B] += v - old
	}
	return f.cur.Clone(), true
}

func redraw(rng *rand.Rand, base float64) float64 {
	return base * (1 + feedSpread*(2*rng.Float64()-1))
}
